package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/relay"
)

func testConfig() *Config {
	return &Config{
		Clients: 8, Rate: 2000, Duration: time.Second,
		Mix:  Mix{QueryPct: 60, WarmQueryPct: 20, InvokePct: 15, SubscribePct: 5},
		Keys: 32, Seed: 11,
	}
}

// TestOpenLoopSustainsOfferedRate: against a no-op driver the generator
// must deliver the whole schedule — rate × duration operations — and the
// run must take no longer than the schedule plus drain slack. This is the
// open-loop property: arrivals are driven by the clock, not completions.
func TestOpenLoopSustainsOfferedRate(t *testing.T) {
	cfg := testConfig()
	noop := DriverFunc(func(context.Context, int, Op) error { return nil })
	stats, err := Run(context.Background(), cfg, noop)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := uint64(cfg.Rate * cfg.Duration.Seconds())
	if stats.Issued != want {
		t.Fatalf("issued = %d, want the full schedule of %d", stats.Issued, want)
	}
	if stats.OK != want || stats.Failed != 0 {
		t.Fatalf("ok/failed = %d/%d, want %d/0", stats.OK, stats.Failed, want)
	}
	if stats.Wall > cfg.Duration+2*time.Second {
		t.Fatalf("wall = %s, schedule should finish near %s", stats.Wall, cfg.Duration)
	}
	if ar := stats.AchievedRate(); ar < cfg.Rate*0.8 {
		t.Fatalf("achieved rate %.1f, want ≥ 80%% of offered %.1f", ar, cfg.Rate)
	}
	// The seeded mix must produce every op class.
	for _, k := range OpKinds {
		if stats.OKByKind[k] == 0 {
			t.Fatalf("kind %s never scheduled", k)
		}
	}
}

// TestOpenLoopLatencyIncludesQueueing: a driver that stalls must see the
// stall charged to latency measured from the scheduled due time, not from
// service start — the anti-coordinated-omission property.
func TestOpenLoopLatencyIncludesQueueing(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 1
	cfg.Rate = 100
	cfg.Duration = 500 * time.Millisecond
	cfg.Mix = Mix{QueryPct: 100}
	stall := 30 * time.Millisecond
	driver := DriverFunc(func(context.Context, int, Op) error {
		time.Sleep(stall)
		return nil
	})
	stats, err := Run(context.Background(), cfg, driver)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One worker at ~33 ops/s against 100 offered: the queue grows, so
	// p99 latency must be far above the 30ms service time.
	if p99 := stats.Latency[OpQuery].Percentile(99); p99 < 5*stall.Microseconds() {
		t.Fatalf("p99 = %dµs; queueing delay was absorbed (coordinated omission)", p99)
	}
}

// TestRunErrorBudgetClassification: transport-flavored failures land in
// the availability class, everything else in protocol, tallied per kind
// and per class consistently.
func TestRunErrorBudgetClassification(t *testing.T) {
	cfg := testConfig()
	cfg.Rate, cfg.Duration = 1000, 500*time.Millisecond
	var mu sync.Mutex
	issued := map[OpKind]int{}
	driver := DriverFunc(func(_ context.Context, _ int, op Op) error {
		mu.Lock()
		issued[op.Kind]++
		n := issued[op.Kind]
		mu.Unlock()
		switch {
		case n%10 == 0:
			return fmt.Errorf("dial: %w", relay.ErrUnreachable)
		case n%7 == 0:
			return fmt.Errorf("bad proof")
		default:
			return nil
		}
	})
	stats, err := Run(context.Background(), cfg, driver)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.ErrsByClass[ErrClassAvailability] == 0 || stats.ErrsByClass[ErrClassProtocol] == 0 {
		t.Fatalf("error classes = %v, want both populated", stats.ErrsByClass)
	}
	var byKind uint64
	for _, k := range OpKinds {
		for _, n := range stats.ErrsByKind[k] {
			byKind += n
		}
	}
	if total := stats.ErrsByClass[ErrClassAvailability] + stats.ErrsByClass[ErrClassProtocol]; byKind != total || stats.Failed != total {
		t.Fatalf("per-kind %d, per-class %d, failed %d must agree", byKind, total, stats.Failed)
	}
	if stats.OK+stats.Failed != stats.Issued {
		t.Fatalf("ok %d + failed %d != issued %d", stats.OK, stats.Failed, stats.Issued)
	}
}

// TestClassify pins the budget boundary.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{relay.ErrUnreachable, ErrClassAvailability},
		{fmt.Errorf("wrapped: %w", relay.ErrAllRelaysFailed), ErrClassAvailability},
		{context.DeadlineExceeded, ErrClassAvailability},
		{context.Canceled, ErrClassAvailability},
		// The ambiguous-invoke shape: a relay killed under an in-flight
		// request surfaces the raw broken-connection error, unwrapped.
		{fmt.Errorf("relay: reply from 127.0.0.1:9: %w", io.EOF), ErrClassAvailability},
		{fmt.Errorf("read: %w", &net.OpError{Op: "read", Err: fmt.Errorf("connection reset")}), ErrClassAvailability},
		// A write conflict arrives as a flattened application error string.
		{fmt.Errorf("proof: remote error: relay: cross-network tx invalidated: mvcc-conflict"), ErrClassContention},
		// A source relay's deadline miss, flattened into the response.
		{fmt.Errorf("proof: remote error: context deadline exceeded"), ErrClassAvailability},
		{fmt.Errorf("verification failed"), ErrClassProtocol},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestConfigValidate rejects the configurations the runner cannot honor.
func TestConfigValidate(t *testing.T) {
	breakers := map[string]func(*Config){
		"zero clients":     func(c *Config) { c.Clients = 0 },
		"zero rate":        func(c *Config) { c.Rate = 0 },
		"zero duration":    func(c *Config) { c.Duration = 0 },
		"mix not 100":      func(c *Config) { c.Mix.QueryPct = 50 },
		"one key":          func(c *Config) { c.Keys = 1 },
		"zipf too flat":    func(c *Config) { c.ZipfS = 0.9 },
		"bad arrival":      func(c *Config) { c.Arrival = "bursty" },
		"churn no standby": func(c *Config) { c.Churn = true; c.Replicas = 1 },
		"churn over a chain without a standby": func(c *Config) {
			// No subscriptions, so only the churn rule can refuse it.
			c.Mix.QueryPct, c.Mix.SubscribePct = 65, 0
			c.HubHops, c.Replicas, c.Churn = 2, 1, true
		},
	}
	for name, mutate := range breakers {
		cfg := testConfig()
		mutate(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", name)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("baseline config rejected: %v", err)
	}
	for name, preset := range Presets {
		p := preset
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

// TestConfigIgnoresRetiredFields: a config file written when loadgen still
// had commit, batching and per-tier replica knobs decodes, with those
// fields ignored.
func TestConfigIgnoresRetiredFields(t *testing.T) {
	old := `{"clients":4,"rate":50,"duration_ns":1000000000,"keys":8,
		"mix":{"query_pct":100},"pipelined":true,"committer_workers":4,
		"attest_batch_window_ns":3000000,"attest_batch_max":32,"attest_batch_off":true,
		"extra_stl_relays":2,"hub_relays":3}`
	var cfg Config
	if err := json.Unmarshal([]byte(old), &cfg); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.Clients != 4 || cfg.Keys != 8 || cfg.Mix.QueryPct != 100 || cfg.Replicas != 0 {
		t.Fatalf("current fields lost: %+v", cfg)
	}
}

// TestScheduleDeterministicMixAndKeys: the same seed yields the same
// sequence of kinds and keys, and the key distribution is zipf-skewed —
// the hottest key dominates a uniform share.
func TestScheduleDeterministicMixAndKeys(t *testing.T) {
	collect := func() []Op {
		cfg := testConfig()
		cfg.Rate, cfg.Duration = 5000, 200*time.Millisecond
		var mu sync.Mutex
		var got []Op
		driver := DriverFunc(func(_ context.Context, _ int, op Op) error {
			mu.Lock()
			got = append(got, op)
			mu.Unlock()
			return nil
		})
		if _, err := Run(context.Background(), cfg, driver); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("run sizes differ: %d vs %d", len(a), len(b))
	}
	bySeq := func(ops []Op) map[int]Op {
		m := make(map[int]Op, len(ops))
		for _, op := range ops {
			m[op.Seq] = op
		}
		return m
	}
	am, bm := bySeq(a), bySeq(b)
	keyCounts := map[int]int{}
	for seq, opA := range am {
		opB := bm[seq]
		if opA.Kind != opB.Kind || opA.Key != opB.Key {
			t.Fatalf("seq %d differs across seeded runs: %+v vs %+v", seq, opA, opB)
		}
		keyCounts[opA.Key]++
	}
	if hottest := keyCounts[0]; hottest*4 < len(a) {
		t.Fatalf("zipf skew missing: key 0 got %d of %d ops", hottest, len(a))
	}
}
