package loadgen

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/relay"
	"repro/internal/wire"
)

// keyRef names the seeded purchase order for a key index.
func keyRef(key int) string { return fmt.Sprintf("po-lg-%03d", key) }

// issuedInvoke is one invoke the generator sent, remembered for the
// post-run ledger audit.
type issuedInvoke struct {
	txID string
	ok   bool
}

// liveDriver executes operations against a scenario TCP deployment: one
// core client per worker, real sockets between the destination relay and
// the source relay fleet.
type liveDriver struct {
	world   *scenario.TradeWorld
	clients []*core.Client
	// hops is the expected verified path length on every query answer: one
	// per forwarding hub in a chain deployment, zero when direct.
	hops int
	// invokes[w] is worker w's private append log — no locking on the hot
	// path, collected after the run.
	invokes [][]issuedInvoke
	// spans[w] is worker w's log of traced ops; nil when the run is not
	// traced.
	spans []spanLog
}

func newLiveDriver(w *scenario.TradeWorld, workers, hops int) (*liveDriver, error) {
	d := &liveDriver{world: w, hops: hops, invokes: make([][]issuedInvoke, workers)}
	for i := 0; i < workers; i++ {
		c, err := core.NewClient(w.SWT, wetrade.SellerBankOrg, fmt.Sprintf("lg-client-%d", i))
		if err != nil {
			return nil, fmt.Errorf("loadgen: client %d: %w", i, err)
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// Do implements Driver.
func (d *liveDriver) Do(ctx context.Context, worker int, op Op) error {
	client := d.clients[worker]
	started := time.Now()
	switch op.Kind {
	case OpQuery:
		// Empty RequestID: a fresh nonce per issue, so the source relay
		// must build (sign + encrypt) a new proof — the cold path.
		data, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
			Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(keyRef(op.Key))},
			Trace: d.spans != nil,
		})
		return d.checkData(worker, op, started, data, err)
	case OpWarmQuery:
		// A fixed (client, key) request ID derives a deterministic nonce,
		// so the wire query is byte-identical on every issue and the
		// source relay's attestation cache answers after the first.
		data, err := client.RemoteQuery(ctx, core.RemoteQuerySpec{
			Network: tradelens.NetworkID, Contract: tradelens.ChaincodeName,
			Function: tradelens.FnGetBillOfLading, Args: [][]byte{[]byte(keyRef(op.Key))},
			RequestID: fmt.Sprintf("lg-warm-%d-%d", worker, op.Key),
			Trace:     d.spans != nil,
		})
		return d.checkData(worker, op, started, data, err)
	case OpInvoke:
		return d.doInvoke(ctx, worker, op, started)
	case OpSubscribe:
		_, cancel, err := client.SubscribeRemoteEvents(ctx, tradelens.NetworkID, "lg-event")
		if err != nil {
			return err
		}
		cancel()
		return nil
	default:
		return fmt.Errorf("loadgen: unknown op kind %q", op.Kind)
	}
}

// warmUp asks every (worker, key) pair's warm query once, so that a warm
// query in the measured window is an attestation-cache hit rather than
// the pair's first, cold, build. It runs before the driver traces, so its
// queries leave no spans. With replicated source relays a warm query can
// still reach a replica that has not cached it.
func (d *liveDriver) warmUp(ctx context.Context, keys int) error {
	for w := range d.clients {
		for key := 0; key < keys; key++ {
			if err := d.Do(ctx, w, Op{Kind: OpWarmQuery, Key: key}); err != nil {
				return fmt.Errorf("loadgen: warm-up of client %d, key %d: %w", w, key, err)
			}
		}
	}
	return nil
}

// doInvoke sends a writable append under a run-unique idempotency key,
// retrying the two transient outcomes the way a production client would,
// always under the same key: an availability failure (a relay dying under
// the request) leaves the outcome ambiguous and the ledger-anchored dedup
// resolves the retry; a contention failure (the commit invalidated by a
// concurrent write to the same hot key) committed nothing and is safe to
// resubmit. Every issue is remembered for the exactly-once audit.
func (d *liveDriver) doInvoke(ctx context.Context, worker int, op Op, started time.Time) error {
	client := d.clients[worker]
	spec := core.RemoteQuerySpec{
		Network: tradelens.NetworkID, Contract: scenario.AuditChaincodeName, Function: "Append",
		Args:      [][]byte{[]byte(keyRef(op.Key)), []byte(fmt.Sprintf("op-%d;", op.Seq))},
		RequestID: fmt.Sprintf("lg-inv-%d-%d", worker, op.Seq),
		Trace:     d.spans != nil,
	}
	var data *core.RemoteData
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		data, err = client.RemoteInvoke(ctx, spec)
		if class := Classify(err); class != ErrClassAvailability && class != ErrClassContention {
			break
		}
	}
	if err == nil && d.spans != nil {
		d.spans[worker].add(op, started, data.Spans)
	}
	d.invokes[worker] = append(d.invokes[worker], issuedInvoke{
		txID: relay.InteropTxID(&wire.Query{
			RequestID:         spec.RequestID,
			RequestingNetwork: wetrade.NetworkID,
			RequesterCertPEM:  client.Identity().CertPEM(),
		}),
		ok: err == nil,
	})
	return err
}

// checkData converts an empty successful query result into a protocol
// error: the seeded key space guarantees every query has an answer. In a
// chain deployment the verified hop path must name every hub — a shorter
// path means a forwarding tier was bypassed or its pin dropped. A traced
// answer's spans go to worker's log, with started, when the worker took
// up op.
func (d *liveDriver) checkData(worker int, op Op, started time.Time, data *core.RemoteData, err error) error {
	if err != nil {
		return err
	}
	if len(data.Result) == 0 {
		return fmt.Errorf("loadgen: empty result for a seeded key")
	}
	if len(data.Path) != d.hops {
		return fmt.Errorf("loadgen: verified hop path has %d pins, want %d", len(data.Path), d.hops)
	}
	if d.spans != nil {
		d.spans[worker].add(op, started, data.Spans)
	}
	return nil
}

// auditExactlyOnce scans the source ledger once and judges every issued
// invoke: an invoke the generator saw succeed must have exactly one valid
// commit; no idempotency key may ever have more than one.
func (d *liveDriver) auditExactlyOnce() (Audit, error) {
	commits, err := scenario.CommitsByTxID(d.world.STL.Fabric)
	if err != nil {
		return Audit{}, fmt.Errorf("loadgen: exactly-once audit: %w", err)
	}
	var audit Audit
	for _, worker := range d.invokes {
		for _, inv := range worker {
			audit.InvokesIssued++
			valid := commits[inv.txID].Valid
			audit.ValidCommits += valid
			if valid > 1 {
				audit.DuplicateCommits += valid - 1
			}
			if inv.ok && valid == 0 {
				audit.MissingCommits++
			}
		}
	}
	return audit, nil
}

// churner injects relay faults: every interval it kills one relay of the
// tier the origin resolves (the first hub tier, or the source when direct),
// holds it down for half the interval, restarts it, and moves to the next.
type churner struct {
	servers  []*scenario.TCPRelayServer
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	kills    int
}

func startChurner(servers []*scenario.TCPRelayServer, interval time.Duration) *churner {
	c := &churner{servers: servers, interval: interval, stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *churner) run() {
	defer close(c.done)
	for i := 0; ; i++ {
		select {
		case <-time.After(c.interval / 2):
		case <-c.stop:
			return
		}
		victim := c.servers[i%len(c.servers)]
		if err := victim.Kill(); err != nil {
			continue
		}
		c.kills++
		select {
		case <-time.After(c.interval / 2):
		case <-c.stop:
		}
		// Always restart — even on the way out, the deployment is left
		// whole so the post-run audit and stats window see a full fleet.
		_ = victim.Restart()
		select {
		case <-c.stop:
			return
		default:
		}
	}
}

// halt stops injection and waits for any in-progress kill to be restarted.
func (c *churner) halt() int {
	close(c.stop)
	<-c.done
	return c.kills
}

// fleetStats sums a consistent snapshot from every relay in the
// deployment — origin, forwarding hubs, and source fleet alike.
func fleetStats(servers []*scenario.TCPRelayServer) relay.Stats {
	var sum relay.Stats
	for _, s := range servers {
		sum = sum.Merge(s.Relay.Stats())
	}
	return sum
}

// RunLive builds the TCP deployment, seeds the key space, drives the
// configured workload against it, and returns the full report: latency
// percentiles per operation class, throughput, the error budget, the
// relay fleet's counter window, and the exactly-once audit.
func RunLive(ctx context.Context, cfg *Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	startedAt := time.Now()
	dep, err := scenario.BuildTCPChain(cfg.HubHops, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	w := dep.World
	// The fault injector kills relays of the tier the origin resolves.
	churnPool := dep.STLServers
	if len(dep.Hubs) > 0 {
		churnPool = dep.Hubs[0].Servers
	}
	if err := scenario.DeployAuditLog(w); err != nil {
		return nil, err
	}
	actors, err := w.NewActors()
	if err != nil {
		return nil, err
	}
	refs := make([]string, cfg.Keys)
	for i := range refs {
		refs[i] = keyRef(i)
	}
	if err := scenario.SeedShipments(ctx, actors, refs...); err != nil {
		return nil, err
	}
	driver, err := newLiveDriver(w, cfg.Clients, cfg.HubHops)
	if err != nil {
		return nil, err
	}
	if cfg.Mix.WarmQueryPct > 0 {
		if err := driver.warmUp(ctx, cfg.Keys); err != nil {
			return nil, err
		}
	}
	if cfg.Spans {
		driver.spans = make([]spanLog, cfg.Clients)
	}
	baseline := fleetStats(dep.AllServers())
	var faults *churner
	if cfg.Churn {
		faults = startChurner(churnPool, cfg.churnInterval())
	}
	stats, err := Run(ctx, cfg, driver)
	kills := 0
	if faults != nil {
		kills = faults.halt()
	}
	if err != nil {
		return nil, err
	}
	window := fleetStats(dep.AllServers()).Sub(baseline)

	report := NewReport(cfg, stats, window, startedAt)
	report.Churn = kills
	audit, err := driver.auditExactlyOnce()
	if err != nil {
		return nil, err
	}
	report.Audit = &audit
	if driver.spans != nil {
		report.Stages = stageReports(driver.spans)
	}
	return report, nil
}

var _ Driver = (*liveDriver)(nil)
