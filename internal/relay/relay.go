// Package relay implements the relay service of the paper's architecture
// (§3.2): a component deployed within each network that serves requests for
// authentic data by fetching it, with verifiable proofs, from remote
// networks. Relays speak the network-neutral wire protocol among
// themselves, resolve each other through pluggable discovery services, and
// translate protocol messages into platform calls through pluggable network
// drivers. The relay is assumed minimally trusted: everything it carries is
// encrypted to the requesting client and every proof is validated on the
// destination ledger.
package relay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/trace"
	"repro/internal/wire"
)

var (
	// ErrUnknownNetwork is returned when discovery cannot resolve a
	// network or an incoming query targets a network this relay does not
	// serve.
	ErrUnknownNetwork = errors.New("relay: unknown network")
	// ErrAllRelaysFailed is returned when every discovered relay address
	// for a network is unreachable.
	ErrAllRelaysFailed = errors.New("relay: all relay addresses failed")
	// ErrBadEnvelope is returned for malformed or incompatible envelopes.
	ErrBadEnvelope = errors.New("relay: bad envelope")
)

// Discovery resolves a network ID to the addresses of its relays, in
// preference order. Deploying multiple relays per network and listing them
// all is the paper's mitigation for relay denial-of-service (§5). Entries
// are lease-based (see LeaseRegistrar): membership is kept fresh by
// re-announcement instead of accumulating forever. A network with no live
// entry resolves to the bare ErrUnknownNetwork: a relay that reaches a
// target only through a route misses on every request, so the caller an
// error reaches names the network.
type Discovery interface {
	Resolve(networkID string) ([]string, error)
}

// StaticRegistry is an in-memory Discovery with lease-based membership,
// suitable for tests and in-process deployments.
type StaticRegistry struct {
	mu      sync.RWMutex
	entries map[string][]leaseEntry
	now     func() time.Time // overridable in tests
}

var _ LeaseRegistrar = (*StaticRegistry)(nil)

// NewStaticRegistry returns an empty registry.
func NewStaticRegistry() *StaticRegistry {
	return &StaticRegistry{entries: make(map[string][]leaseEntry), now: time.Now}
}

// Register adds permanent relay addresses for a network, deduplicating by
// address: re-registering an address already present is a no-op rather
// than an appended duplicate.
func (r *StaticRegistry) Register(networkID string, addrs ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, addr := range addrs {
		r.entries[networkID] = upsertLease(r.entries[networkID], addr, time.Time{})
	}
}

// RegisterLease implements LeaseRegistrar: the address is registered (or
// its existing entry refreshed) with a lease of ttl; zero ttl means
// permanent.
func (r *StaticRegistry) RegisterLease(networkID, addr string, ttl time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var expires time.Time
	if ttl > 0 {
		expires = r.now().Add(ttl)
	}
	r.entries[networkID] = upsertLease(r.entries[networkID], addr, expires)
	return nil
}

// Deregister implements LeaseRegistrar, removing one address for a network.
func (r *StaticRegistry) Deregister(networkID, addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if entries, removed := removeLease(r.entries[networkID], addr); removed {
		r.entries[networkID] = entries
	}
	return nil
}

// Resolve implements Discovery, returning addresses whose lease has not
// lapsed.
func (r *StaticRegistry) Resolve(networkID string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addrs := liveAddrs(r.entries[networkID], r.now())
	if len(addrs) == 0 {
		return nil, ErrUnknownNetwork
	}
	return addrs, nil
}

// Transport delivers an envelope to a remote relay address and returns the
// reply envelope. Implementations must honour ctx: cancellation or deadline
// expiry aborts the round-trip and returns ctx.Err() (possibly wrapped).
type Transport interface {
	Send(ctx context.Context, addr string, env *wire.Envelope) (*wire.Envelope, error)
}

// Driver translates network-neutral queries into calls on one local
// network's platform (§3.2: "a set of pluggable network drivers").
type Driver interface {
	// Platform names the ledger technology the driver speaks.
	Platform() string
	// ServeQuery executes a cross-network query against the local network,
	// orchestrating proof collection per the query's verification policy,
	// and returns the encoded wire.QueryResponse without its RequestID.
	// The bytes may be shared — an attestation-cache entry that every hit
	// returns — so they are read-only: nobody writes them or decodes them
	// in place. The source relay stamps the request's ID as it writes
	// them into its reply frame (wire.StampedResponseEnvelope); a caller
	// that wants the response decoded decodes a copy (queryOn). ctx
	// carries the requester's remaining time budget; drivers abandon work
	// once it is done.
	ServeQuery(ctx context.Context, q *wire.Query) ([]byte, error)
}

// EventSource is implemented by drivers whose platform can emit chaincode
// events for cross-network subscriptions (an extension beyond the paper's
// query protocol; §7 future work). ctx bounds subscription establishment
// only; delivery continues until cancel is called.
type EventSource interface {
	SubscribeEvents(ctx context.Context, eventName string, deliver func(payload []byte, name string, unixNano uint64)) (cancel func(), err error)
}

// Option configures a Relay.
type Option func(*Relay)

// WithClock overrides the relay's time source (used in tests).
func WithClock(now func() time.Time) Option {
	return func(r *Relay) { r.now = now }
}

// Relay is one network's relay service. The same instance plays both roles
// of Fig. 2: as the destination relay it forwards local applications'
// queries to remote relays; as the source relay it serves incoming queries
// through its drivers.
type Relay struct {
	localNetwork string
	discovery    Discovery
	transport    Transport
	now          func() time.Time

	// Per-address health scoring and circuit breaking, fed by every
	// transport outcome (see health.go).
	health *healthTracker

	mu      sync.RWMutex
	drivers map[string]Driver

	// Multi-hop routing (see route.go/forward.go): the static route
	// table whose vias follow the direct leg of every outbound request,
	// and the identity a forwarding relay signs hop pins with. A nil
	// forwardID means this relay never forwards for others; a nil routes
	// table means its own requests never take a multi-hop path.
	routes    *RouteTable
	forwardID *msp.Identity

	events *eventHub

	limiter *RateLimiter
	stats   statsCounters

	// One channel per interop key in flight, closed when that request
	// finishes, so a duplicate waits for its original (see invokeClaim).
	invokeMu      sync.Mutex
	invokePending map[string]chan struct{}
}

// New creates a relay for the given local network.
func New(localNetworkID string, discovery Discovery, transport Transport, opts ...Option) *Relay {
	r := &Relay{
		localNetwork:  localNetworkID,
		discovery:     discovery,
		transport:     transport,
		now:           time.Now,
		drivers:       make(map[string]Driver),
		events:        newEventHub(),
		invokePending: make(map[string]chan struct{}),
	}
	for _, opt := range opts {
		opt(r)
	}
	// Built after options so the tracker shares an overridden clock.
	r.health = newHealthTracker(r.now, defaultBreakerThreshold, defaultBreakerCooldown)
	return r
}

// AttestationCacheNotifier is implemented by drivers that front proof
// construction with an attestation cache and can report hit/miss outcomes
// through callbacks; RegisterDriver wires them to the relay's Stats so
// cache effectiveness is observable next to the traffic it saves.
type AttestationCacheNotifier interface {
	OnAttestationCache(hit, miss func())
}

// CryptoOpsReporter is implemented by drivers that count the expensive
// crypto operations behind their proof builds. Relay.Stats sums the
// reported counters into its snapshot so ECIES/signature amortization is
// observable per deployment window.
type CryptoOpsReporter interface {
	// CryptoOps returns monotonic totals: ECDH scalar multiplications,
	// ECDSA signatures, envelope encryptions.
	CryptoOps() (ecdh, sign, encrypt uint64)
}

// RegisterDriver attaches a driver for a local network ID. A relay usually
// serves one network but may front several co-located ones. A driver that
// serves ledger replays internally (LedgerReplayNotifier — e.g. after
// losing a commit race) is wired to this relay's stats so those replays
// are counted alongside the relay's own pre-execution replays; likewise a
// driver with an attestation cache (AttestationCacheNotifier) reports its
// hit/miss counts here.
func (r *Relay) RegisterDriver(networkID string, d Driver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drivers[networkID] = d
	if n, ok := d.(LedgerReplayNotifier); ok {
		n.OnLedgerReplay(r.countInvokeReplay)
	}
	if n, ok := d.(AttestationCacheNotifier); ok {
		n.OnAttestationCache(r.countAttestationCacheHit, r.countAttestationCacheMiss)
	}
}

func (r *Relay) driverFor(networkID string) (Driver, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.drivers[networkID]
	return d, ok
}

// Query is the client-facing entry point (Fig. 2 steps 1-3 and 9): resolve
// the target network's relay addresses, forward the query, and return the
// response. The caller's Query struct is never modified; the relay operates
// on a copy and the assigned request ID travels back in the response's
// RequestID field. Resolved addresses are reordered by observed health —
// live, fast relays first, circuit-open ones demoted to last resort — so
// failover rarely wastes attempts on a relay already known to be down.
// Addresses are tried in order and any transport failure fails over to the
// next one; under a deadline an overdue attempt is abandoned for the next
// address, so a relay that hangs after answering cannot spend the whole
// budget (relay redundancy, §5; see sendLeg and overdueAfter). When every direct relay fails, the
// route table's vias are tried in turn (see forward.go). ctx bounds the
// whole operation: its deadline is stamped into the envelope so the source
// relay inherits the remaining budget, and cancellation aborts in-flight
// transport sends.
func (r *Relay) Query(ctx context.Context, q *wire.Query) (*wire.QueryResponse, error) {
	return r.request(ctx, wire.MsgQuery, q)
}

// request is the origin side of Query and Invoke: a local driver serves the
// target directly, skipping the wire; otherwise the request takes the
// outbound path every hub forwards on.
func (r *Relay) request(ctx context.Context, msgType wire.MsgType, q *wire.Query) (*wire.QueryResponse, error) {
	env, q, err := r.prepareRequest(msgType, q)
	if err != nil {
		return nil, err
	}
	if d, ok := r.driverFor(q.TargetNetwork); ok {
		if msgType == wire.MsgQuery {
			return queryOn(ctx, d, q)
		}
		resp, err := invokeOn(ctx, d, q)
		if err != nil {
			return nil, err
		}
		return ensureRequestID(resp, q), nil
	}
	// The query is encoded by the transport, straight into each frame.
	if rec := trace.FromContext(ctx); rec != nil {
		env.Trace = &wire.Trace{ID: rec.ID()}
	}
	var buf [2]hopLeg
	legs, err := r.legs(buf[:], env, q.TargetNetwork, true)
	if err != nil {
		return nil, err
	}
	return r.walk(ctx, q, legs)
}

// queryOn serves q through d's ServeQuery and returns the response decoded.
// It decodes a copy, since the bytes may be a shared cache entry and the
// decoded response aliases what it was decoded from, and stamps q's ID.
func queryOn(ctx context.Context, d Driver, q *wire.Query) (*wire.QueryResponse, error) {
	raw, err := d.ServeQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	resp, err := wire.UnmarshalQueryResponse(bytes.Clone(raw))
	if err != nil {
		return nil, err
	}
	resp.RequestID = q.RequestID
	return resp, nil
}

// ensureRequestID backfills the assigned request ID into a response that
// lacks one — the invariant (introduced with the no-mutation Query
// contract) that the response always echoes the ID the relay assigned.
func ensureRequestID(resp *wire.QueryResponse, q *wire.Query) *wire.QueryResponse {
	if resp.RequestID == "" {
		resp.RequestID = q.RequestID
	}
	return resp
}

// prepareRequest validates the query and returns a copy with the request ID
// and requesting network filled in, leaving the caller's struct untouched,
// and the msgType envelope that carries the copy (wire.RequestEnvelope).
func (r *Relay) prepareRequest(msgType wire.MsgType, q *wire.Query) (*wire.Envelope, *wire.Query, error) {
	if q.TargetNetwork == "" {
		return nil, nil, fmt.Errorf("%w: query without target network", ErrBadEnvelope)
	}
	prepared := *q
	if prepared.RequestID == "" {
		reqID, err := newRequestID()
		if err != nil {
			return nil, nil, err
		}
		prepared.RequestID = reqID
	}
	if prepared.RequestingNetwork == "" {
		prepared.RequestingNetwork = r.localNetwork
	}
	env, copied := wire.RequestEnvelope(msgType, &prepared)
	return env, copied, nil
}

// HandleEnvelope is the server-facing entry point (Fig. 2 steps 4-8): it
// dispatches an incoming envelope and returns the reply envelope. Transport
// servers (TCP, in-process) call this for every received frame. The serving
// context is ctx narrowed by the envelope's relative budget
// (TimeoutNanos), so the source side never works past the requester's
// remaining budget, and a request whose budget is spent on arrival reaches
// no driver. A request built by wire.RequestEnvelope has its Payload
// filled first, so env is served as the decoded envelope of its frame
// would be; a response reply comes back with its Payload encoded.
func (r *Relay) HandleEnvelope(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	env.EncodePayload()
	reply := r.handle(ctx, env)
	reply.EncodePayload()
	return reply
}

// handle is HandleEnvelope leaving a response reply's payload unencoded
// (wire.ResponseEnvelope), for a transport that encodes the whole reply
// once, straight into its frame. A traced request is served with a
// recorder in its context, and its reply carries the spans recorded here
// after those received from further down the path, closed by this relay's
// serve span.
func (r *Relay) handle(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	id := env.TraceID()
	if id == "" {
		return r.dispatch(ctx, env)
	}
	rec := trace.New(id, r.localNetwork)
	start := rec.Start()
	reply := r.dispatch(trace.NewContext(ctx, rec), env)
	rec.End(trace.Serve, start)
	reply.Trace = &wire.Trace{Spans: rec.Spans()}
	return reply
}

// dispatch serves env by its message type.
func (r *Relay) dispatch(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	if env.Version > wire.ProtocolVersion {
		return errEnvelope(env.RequestID, fmt.Sprintf("unsupported protocol version %d", env.Version))
	}
	if env.TimeoutNanos != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(env.TimeoutNanos))
		defer cancel()
		if err := ctx.Err(); err != nil {
			return errEnvelope(env.RequestID, err.Error())
		}
	}
	switch env.Type {
	case wire.MsgPing:
		return &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgPong, RequestID: env.RequestID}
	case wire.MsgQuery:
		return r.handleQuery(ctx, env)
	case wire.MsgInvoke:
		return r.handleInvoke(ctx, env)
	case wire.MsgSubscribe:
		return r.handleSubscribe(ctx, env)
	case wire.MsgEvent:
		return r.handleEvent(env)
	default:
		return errEnvelope(env.RequestID, fmt.Sprintf("unsupported message type %s", env.Type))
	}
}

func (r *Relay) handleQuery(ctx context.Context, env *wire.Envelope) *wire.Envelope {
	q, err := decodeQuery(ctx, env)
	if err != nil {
		return errEnvelope(env.RequestID, fmt.Sprintf("malformed query: %v", err))
	}
	if err := r.checkLimit(q.RequestingNetwork); err != nil {
		return errEnvelope(env.RequestID, err.Error())
	}
	d, ok := r.driverFor(q.TargetNetwork)
	if !ok {
		if r.forwarderIdentity() != nil {
			return r.forward(ctx, env, q)
		}
		return errEnvelope(env.RequestID, fmt.Sprintf("network %q not served by this relay", q.TargetNetwork))
	}
	r.countQuery()
	raw, err := d.ServeQuery(ctx, q)
	if err != nil {
		// Application-level failures travel inside the response so the
		// requester can distinguish them from transport failures.
		r.countError()
		return wire.ResponseEnvelope(env.RequestID, &wire.QueryResponse{RequestID: q.RequestID, Error: err.Error()})
	}
	return wire.StampedResponseEnvelope(env.RequestID, q.RequestID, raw)
}

// decodeQuery decodes a query or invoke envelope's payload, timed as
// codec for a traced request.
func decodeQuery(ctx context.Context, env *wire.Envelope) (*wire.Query, error) {
	rec := trace.FromContext(ctx)
	start := rec.Start()
	q, err := wire.UnmarshalQuery(env.Payload)
	rec.End(trace.Codec, start)
	return q, err
}

// Ping probes a remote relay address, returning the round-trip error if
// any. ctx bounds the probe. The outcome feeds the address's health score
// like any other transport send, so operational probing doubles as health
// maintenance.
func (r *Relay) Ping(ctx context.Context, addr string) error {
	reqID, err := newRequestID()
	if err != nil {
		return err
	}
	env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgPing, RequestID: reqID}
	stampDeadline(ctx, env)
	reply, err := r.observeSend(ctx, addr, env)
	if err != nil {
		return err
	}
	if reply.Type != wire.MsgPong {
		return fmt.Errorf("%w: ping reply type %s", ErrBadEnvelope, reply.Type)
	}
	return nil
}

func errEnvelope(requestID, msg string) *wire.Envelope {
	return &wire.Envelope{
		Version:   wire.ProtocolVersion,
		Type:      wire.MsgError,
		RequestID: requestID,
		Payload:   []byte(msg),
	}
}

func newRequestID() (string, error) {
	id, err := cryptoutil.NewNonceHex(12)
	if err != nil {
		return "", fmt.Errorf("relay: request id: %w", err)
	}
	return id, nil
}
