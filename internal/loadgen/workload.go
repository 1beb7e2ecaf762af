package loadgen

import (
	"fmt"
	"math/rand"
	"time"
)

// OpKind names the operation classes a workload mixes.
type OpKind string

const (
	// OpQuery is a cold cross-network query: a fresh nonce every time, so
	// the source relay's attestation cache cannot help.
	OpQuery OpKind = "query"
	// OpWarmQuery repeats a fixed (client, key) request ID: the
	// deterministic nonce derivation makes the wire query identical on
	// every issue, so after the first the source relay answers from its
	// attestation cache.
	OpWarmQuery OpKind = "warm_query"
	// OpInvoke is a writable cross-network invoke with a unique
	// idempotency key, committing on the source ledger.
	OpInvoke OpKind = "invoke"
	// OpSubscribe establishes a cross-network event subscription and
	// immediately releases it; the measured latency is establishment.
	OpSubscribe OpKind = "subscribe"
)

// OpKinds lists every kind in reporting order.
var OpKinds = []OpKind{OpQuery, OpWarmQuery, OpInvoke, OpSubscribe}

// Mix is the workload composition in percent. Entries must sum to 100.
type Mix struct {
	QueryPct     int `json:"query_pct"`
	WarmQueryPct int `json:"warm_query_pct"`
	InvokePct    int `json:"invoke_pct"`
	SubscribePct int `json:"subscribe_pct"`
}

func (m Mix) total() int {
	return m.QueryPct + m.WarmQueryPct + m.InvokePct + m.SubscribePct
}

// pick maps a uniform draw in [0,100) to an operation kind.
func (m Mix) pick(r *rand.Rand) OpKind {
	n := r.Intn(100)
	if n -= m.QueryPct; n < 0 {
		return OpQuery
	}
	if n -= m.WarmQueryPct; n < 0 {
		return OpWarmQuery
	}
	if n -= m.InvokePct; n < 0 {
		return OpInvoke
	}
	return OpSubscribe
}

// Config parameterizes one load-generation run. Both networks commit
// through the one orderer and committer path, and every relay batches
// attestation adaptively, so there are no commit or batching knobs, and one
// replica count fronts every relay tier: older JSON configs that carry
// pipelined, batch_size, committer_workers, attest_batch_*,
// extra_stl_relays or hub_relays still decode, with those fields ignored.
type Config struct {
	// Preset records which named preset (if any) the config started from.
	Preset string `json:"preset,omitempty"`

	// Clients is the number of concurrent simulated clients (workers).
	Clients int `json:"clients"`
	// Rate is the target offered rate in operations per second across all
	// clients. The schedule is open-loop: arrivals are due at their
	// scheduled instants whether or not earlier operations have finished.
	Rate float64 `json:"rate"`
	// Duration bounds the arrival schedule; in-flight operations drain
	// after the last arrival.
	Duration time.Duration `json:"duration_ns"`

	Mix Mix `json:"mix"`

	// Keys is the size of the hot key space (seeded purchase orders).
	Keys int `json:"keys"`
	// ZipfS is the zipf skew exponent (>1; larger = more skewed). Zero
	// selects the default 1.2.
	ZipfS float64 `json:"zipf_s"`

	// Arrival is the inter-arrival law: "poisson" (default) or "uniform".
	Arrival string `json:"arrival"`

	// HubHops stretches the deployment over a multi-hop relay chain: the
	// number of intermediate forwarding hub networks between the origin and
	// the source (0 = direct). Every response then carries one signed hop
	// pin per hub, verified end to end by each client.
	HubHops int `json:"hub_hops,omitempty"`
	// Replicas is the number of redundant relays fronting each hub tier and
	// the source network (<=0 selects 1).
	Replicas int `json:"replicas,omitempty"`

	// Churn enables fault injection: every ChurnInterval a relay of the tier
	// the origin resolves (the first hub tier, or the source when direct) is
	// killed, held down for half the interval, then restarted on its
	// original address. It needs Replicas >= 2 so one keeps serving.
	Churn         bool          `json:"churn"`
	ChurnInterval time.Duration `json:"churn_interval_ns,omitempty"`

	// Seed makes key selection and mix draws reproducible.
	Seed int64 `json:"seed"`

	// Spans traces every query and invoke: the report then ranks each op
	// kind's stages, per relay, and splits its latency the way the paper's
	// evaluation does (StageReport).
	Spans bool `json:"spans,omitempty"`

	// Output is the report path ("" = BENCH_loadgen.json).
	Output string `json:"-"`
}

// Validate rejects configurations the runner cannot honor.
func (c *Config) Validate() error {
	if c.Clients <= 0 {
		return fmt.Errorf("loadgen: clients must be positive, got %d", c.Clients)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: rate must be positive, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive, got %s", c.Duration)
	}
	if got := c.Mix.total(); got != 100 {
		return fmt.Errorf("loadgen: mix percentages sum to %d, want 100", got)
	}
	if c.Keys <= 1 {
		return fmt.Errorf("loadgen: keys must be at least 2, got %d", c.Keys)
	}
	if c.ZipfS != 0 && c.ZipfS <= 1 {
		return fmt.Errorf("loadgen: zipf_s must be > 1, got %g", c.ZipfS)
	}
	switch c.Arrival {
	case "", "poisson", "uniform":
	default:
		return fmt.Errorf("loadgen: unknown arrival law %q", c.Arrival)
	}
	if c.HubHops < 0 {
		return fmt.Errorf("loadgen: hub_hops must be non-negative, got %d", c.HubHops)
	}
	if c.HubHops > 0 && c.Mix.SubscribePct > 0 {
		return fmt.Errorf("loadgen: subscriptions are not forwarded over a relay chain; set subscribe_pct to 0 with hub_hops")
	}
	if c.Churn && c.Replicas < 2 {
		return fmt.Errorf("loadgen: churn kills relay replicas; need replicas >= 2 so one keeps serving")
	}
	return nil
}

// zipfS returns the effective skew exponent.
func (c *Config) zipfS() float64 {
	if c.ZipfS == 0 {
		return 1.2
	}
	return c.ZipfS
}

// churnInterval returns the effective fault-injection period.
func (c *Config) churnInterval() time.Duration {
	if c.ChurnInterval > 0 {
		return c.ChurnInterval
	}
	return 2 * time.Second
}

// newKeyPicker builds the zipf-skewed key selector over [0, Keys).
func (c *Config) newKeyPicker(r *rand.Rand) func() int {
	z := rand.NewZipf(r, c.zipfS(), 1, uint64(c.Keys-1))
	return func() int { return int(z.Uint64()) }
}

// Presets are the named starting points the CLI exposes. Flags override
// individual fields after the preset is applied.
var Presets = map[string]Config{
	// steady-query: the paper's read path under sustained load — mostly
	// cold queries with a warm slice to exercise the attestation cache.
	"steady-query": {
		Preset:  "steady-query",
		Clients: 8, Rate: 120, Duration: 10 * time.Second,
		Mix:  Mix{QueryPct: 70, WarmQueryPct: 25, InvokePct: 5},
		Keys: 64, Seed: 1,
	},
	// invoke-heavy: the write path dominates; every invoke commits on the
	// source ledger and is audited for exactly-once afterwards.
	"invoke-heavy": {
		Preset:  "invoke-heavy",
		Clients: 8, Rate: 80, Duration: 10 * time.Second,
		Mix:  Mix{QueryPct: 20, WarmQueryPct: 10, InvokePct: 65, SubscribePct: 5},
		Keys: 64, Seed: 2,
	},
	// churn: a mixed workload while source relays are killed and
	// restarted under the run; the error budget absorbs the kills and the
	// post-run audit must still find exactly one commit per invoke.
	"churn": {
		Preset:  "churn",
		Clients: 8, Rate: 80, Duration: 12 * time.Second,
		Mix:  Mix{QueryPct: 50, WarmQueryPct: 20, InvokePct: 25, SubscribePct: 5},
		Keys: 64, Seed: 3,
		Replicas: 3, Churn: true, ChurnInterval: 2 * time.Second,
	},
	// batched-query: the steady-query read path with twice the clients, so
	// cold queries overlap and share Merkle-batched windows — one relay
	// signature per window. The small invoke slice keeps the exactly-once
	// audit meaningful under batching.
	"batched-query": {
		Preset:  "batched-query",
		Clients: 16, Rate: 160, Duration: 10 * time.Second,
		Mix:  Mix{QueryPct: 80, WarmQueryPct: 10, InvokePct: 10},
		Keys: 64, Seed: 4,
	},
	// multi-hop: the mixed workload over an A→B→C chain — two forwarding
	// hub networks between the origin and the source, so every answer is a
	// 3-leg walk carrying two signed hop pins that the clients verify, and
	// every invoke commits through the chain under the exactly-once audit.
	"multi-hop": {
		Preset:  "multi-hop",
		Clients: 8, Rate: 80, Duration: 10 * time.Second,
		Mix:  Mix{QueryPct: 60, WarmQueryPct: 15, InvokePct: 25},
		Keys: 64, Seed: 6,
		HubHops: 2,
	},
	// batched-session: batched-query's client count with a
	// cold-query-dominated mix from persistent clients — the shape
	// sessioned ECIES amortizes.
	// Every client keeps its certificate for the whole run, so after the
	// first window each (attestor, requester) agreement is a cache hit and
	// the ECDH column of the report approaches zero per query.
	"batched-session": {
		Preset:  "batched-session",
		Clients: 16, Rate: 160, Duration: 10 * time.Second,
		Mix:  Mix{QueryPct: 85, WarmQueryPct: 5, InvokePct: 10},
		Keys: 64, Seed: 5,
	},
}

// PresetNames lists the presets in stable order for usage text.
func PresetNames() []string {
	return []string{"steady-query", "invoke-heavy", "churn", "batched-query", "batched-session", "multi-hop"}
}
