// Package repro is a from-scratch Go reproduction of "Enabling Enterprise
// Blockchain Interoperability with Trusted Data Transfer" (Abebe et al.,
// Middleware 2019): a relay-based architecture for trusted data transfer
// between independent permissioned blockchain networks, with consensual
// exposure control, verification-policy-driven attestation proofs, and
// end-to-end confidentiality against untrusted relays.
//
// Every request-path operation is context-first: the ctx passed to
// core.Client.RemoteQuery travels with the query — its deadline is stamped
// into the wire envelope as a relative remaining budget
// (Envelope.TimeoutNanos, gRPC-style) that the next relay counts from
// arrival on its own clock, so deadline propagation survives clock skew
// between relays, and cancellation aborts in-flight transport sends. A
// query tries redundant relay addresses in turn and abandons an attempt
// once it is past both an equal share of the budget left and four times the
// address's usual round trip, so a relay that hangs after answering cannot
// spend all of it.
//
// Discovery is health-aware and lease-based. Every transport outcome —
// sequential failover, liveness pings, event pushes —
// feeds a per-address health tracker (consecutive-failure count, EWMA
// round-trip latency, circuit breaker; relay/health.go), and resolved
// address lists are reordered by health score so fan-out tries live, fast
// relays first and demotes circuit-open addresses to last resort until
// their cooldown elapses (3 consecutive failures, 10s).
// Registry membership is lease-based (relay.LeaseRegistrar): a relay
// daemon announces its address under a TTL, renews it on a heartbeat
// (relay.Announce), and deregisters on shutdown; registration deduplicates
// by address, lapsed leases stop resolving, and `netadmin registry
// list`/`registry prune`/`registry compact` inspect and maintain the
// registry.
//
// Redundant relay deployments get exactly-once cross-network invokes
// anchored at the ledger rather than in any one relay's memory: the
// request's interop key (wire.Query.InteropKey — requesting network +
// requester certificate digest + request ID) travels into the committed
// transaction's signed metadata, the committer marks a second commit of
// the same TxID or interop key ledger.Duplicate and skips its writes, and
// every relay asks the ledger before executing, so a duplicate — on the
// relay that committed it, after a restart, or on a sibling — is answered
// with the committed response (relay.TxDriver.ReplayInvoke; BlockStore.
// TxByInteropKey) instead of re-executing. The shared registry is safe for
// multiple relayd processes on one deployment directory: the append-only
// lease journal (relay.JournalRegistry, registry.jsonl) turns every
// announce, renewal and deregistration into one O(1) record appended under
// a flock held only for the append, with readers tailing into a
// materialized view (last record wins, lapsed leases filtered at read
// time; lease records carry absolute expiry plus relative TTL and readers
// take the earlier interpretation, so skew never stretches a dead relay's
// lease), and the append that grows the log past its size threshold rolls
// it into a generation snapshot behind an atomic pointer flip — torn
// appends are skipped, never fatal, and the next append self-heals the
// tail. Discovery carries membership only; each relay's health tracker
// learns from its own sends. The ledger dedup governs duplicate commits of
// one logical invoke on one network; cross-network atomic exchange (asset
// swaps) is a different interoperability problem, out of scope here.
//
// Proofs are first-class, pinned, and persisted. The verification policy
// is pinned at request time: the client stamps the digest of the policy it
// resolved (wire.Query.PolicyDigest, proof.PolicyDigest), the source
// refuses a pin that disagrees with the policy expression, every
// attestation signs the pin inside its metadata, and verification —
// client-side and CMDAC Data Acceptance — refuses a bundle pinned to a
// different policy or carrying no pin at all
// (proof.ErrPolicyDigestMismatch). Invokes get proof-carrying commits: the
// proof over the endorsed response is built before ordering
// ((*proof.Builder).Build, concurrent per attestor) and persisted with the
// committed transaction (ledger.Transaction.ProofBundle, a marshaled proof.Sealed),
// so ReplayInvoke re-serves the original artifact byte for byte even after
// an attestor organization leaves the source network — a replay can never
// become unreproducible through an org change. On the query hot path a
// content-addressed attestation cache (LRU + TTL, every fresh build
// stored) serves repeated identical queries with zero signing or
// encryption. Its key covers everything the proof depends on: query,
// policy, result and requester certificate digests, the version of every
// key the query read, and the attestors' certificates. So nothing is ever
// invalidated: a commit to read state, or an org leaving the network,
// gives the question a new key, while writes to other keys leave the entry
// warm. A driver answers a query as bytes
// (relay.Driver.ServeQuery): the encoded QueryResponse without its request
// ID, read-only because a hit is the cache entry itself. The source relay
// writes it straight into its reply frame, stamping the ID in front as it
// goes (wire.StampedResponseEnvelope) — no copy, no decode, no re-encode;
// a hub likewise encodes the response it forwards once, into the frame,
// and an origin the query of its request (wire.RequestEnvelope).
// Stats.AttestationCacheHits/Misses expose its effectiveness and
// `netadmin proofs show` dumps a persisted artifact. Every proof has one
// envelope, built by one proof.Builder per driver. A proof build alone at
// its driver runs at once; overlapping builds of distinct queries share a
// Merkle-batched window, which every driver arms and which opens only once
// builds overlap: each attestor signs one RFC 6962-shaped Merkle
// root per window under a dedicated domain separator, and every requester
// verifies its own leaf + inclusion proof
// (proof.Element.BatchSize/BatchIndex/BatchPath); a query alone in its
// window is a one-leaf tree, so every attestation is signed one way, and
// batched invokes persist their batched Sealed artifact so the replay
// guarantee covers inclusion proofs too. Every envelope is sealed under
// sessioned ECIES (cryptoutil.SessionManager): one ephemeral key per TTL
// generation, one cached ECDH agreement per requester certificate, a
// per-query AEAD key derived via HKDF bound to the generation and query
// digest, and the session point carried in explicit wire fields
// (Attestation.SessionEphemeral). The requester opens through a
// cryptoutil.Recipient that remembers its agreement per session point, so
// for a warm requester neither side pays a scalar multiplication per query:
// each envelope is one HKDF expand plus one AEAD seal or open.
// relay.Stats.ECDHOps/SignOps/EncryptOps count the expensive primitives
// fleet-wide.
//
// Topologies are transitive: a relay with forwarding enabled
// (relay.EnableForwarding) serves queries and invokes for networks it has
// no driver for by relaying them toward the source along the same outbound
// path an origin request takes: the target's own relays first, then, when
// there are none or every one failed, the vias of a static route table
// (relay.RouteTable; relayd -route target=via1,via2; an invoke moves on
// only when nothing was delivered) — with each transport leg re-wrapped
// under the remaining deadline budget. The envelope carries
// the walked route and a hop TTL (wire.Envelope.Route/MaxHops), so cycles
// are refused structurally and over-deep walks die at the hop that would
// breach the TTL. Every forwarding relay first verifies the downstream
// response's hop chain, then extends it with a signed pin
// (proof.AppendHopPin) binding (previous pin, network, certificate, policy
// digest) to an anchor derived from the query and response; the origin
// (core.Client via proof.VerifyHopChainVia) authenticates the entire path
// — mutation, truncation, reordering, cross-response splicing and
// cross-query replay of any pin all fail — and surfaces it as
// core.RemoteData.Path. A hub holds a forwarded invoke's key while it is in
// flight, so a concurrent duplicate waits instead of racing downstream; a
// later one is forwarded again and the source answers it from its ledger,
// so exactly-once holds across legs even when mid-path replicas die
// mid-run; forwarded legs feed
// the same per-address health scoring and breaker as client fan-out.
//
// There is one commit path, and it is conflict-aware. World state is
// namespaced per chaincode and sharded with one lock per namespace
// (internal/statedb). The solo orderer starts no goroutine, and its
// SubmitWait is group commit: a caller appends its transaction, takes the
// delivery lock and, unless a caller ahead of it already did, cuts
// everything pending into one block — so a lone writer commits a
// one-transaction block, and writers that arrive during a delivery share
// the next. A block is committed in two stages. Every peer checks every
// endorsement it did not sign itself; of its own it still checks the
// certificate and the policy and skips only the ECDSA verify, whose outcome
// it knows. The network runs all (peer, transaction) pairs on one pool of
// up to GOMAXPROCS goroutines, so its peers check a block at the same
// time. Then each peer, in turn, checks duplicates and MVCC reads
// in block order and applies the valid writes, a multi-transaction block
// on a multi-core host level by level by write-write conflicts on the
// namespaced RWSet keys, a level's write sets in parallel. The first peer
// records the verdicts and a peer that disagrees fails delivery. The
// property suites keep a one-transaction-at-a-time committer as the
// oracle: validation codes, version stamps and world state are
// byte-identical to it.
//
// The system is measurable under production-shaped load. `interopctl
// loadgen` (internal/loadgen) builds a multi-relay TCP deployment, drives
// concurrent clients through an open-loop arrival schedule — latency
// charged from each operation's scheduled instant, so queueing delay is
// never silently absorbed — over a configurable mix of cold queries,
// attestation-cache-warm queries, writable invokes and event
// subscriptions with zipf-skewed key selection, and can kill and restart
// source relays mid-run. It reports HDR-style latency percentiles
// (p50/p99/p999/max), throughput, a classed error budget
// (availability/contention/protocol), the relay fleet's counter window
// (relay.Stats.Sub/Merge over lock-free snapshots), and a post-run
// exactly-once audit of every issued invoke against the source ledger,
// written to BENCH_loadgen.json. A request is traceable across relays: a
// traced one (core.RemoteQuerySpec.Trace, `loadgen -spans`) carries a
// trace ID on its envelope, and every relay it crosses times its stages
// (internal/trace) and hands back unsigned, capped spans on the reply
// envelope, surfaced as core.RemoteData.Spans; `loadgen -spans` ranks them
// per op kind and splits the latency as the paper's evaluation does.
//
// The module layout — everything lives under internal/; programs in cmd/
// and examples/ are the runnable surface:
//
//   - internal/core        — application-facing interop layer: EnableInterop,
//     Client (RemoteQuery/RemoteInvoke), governance ops
//   - internal/relay       — relay service, discovery, transports (in-process
//     hub, multiplexed TCP), failover, pluggable drivers
//   - internal/wire        — network-neutral protocol codec and messages:
//     one field walk per message counts, writes and decodes it
//   - internal/proof       — attestation proofs and verification
//   - internal/policy      — access-control rules and verification policies
//   - internal/memo        — the bounded table, keyed by exact input bytes,
//     that memoises certificate, verifier and policy parses
//   - internal/syscc       — system contracts (ECC exposure control, CMDAC
//     configuration management & data acceptance)
//   - internal/fabric      — the Fabric-model platform substrate (MSPs,
//     endorsement, ordering, MVCC validation, gateway)
//   - internal/notary      — a second, notary-attested platform substrate
//   - internal/trace       — per-stage spans of a traced request
//   - internal/loadgen     — open-loop load generation, latency histograms,
//     churn injection, the exactly-once audit and the span tables
//   - internal/apps        — the paper's STL / SWT use-case applications
//   - cmd/                 — relayd, interopctl, netadmin, slocreport
//   - examples/            — quickstart, tradefinance, multirelay,
//     crossplatform walkthroughs
//
// See README.md for a walkthrough. The bench_test.go file in this
// directory regenerates every experiment (E1-E10 mirror and extend the
// paper's evaluation, through the attestation cache, Merkle-batched
// attestation, sessioned ECIES and the multi-hop depth sweep; P1-P7 and P9 are
// supplemental performance characterizations, including the
// slow-address failover and registry-announce measurements).
package repro
