package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	return m
}

func names(ms []manifestMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestManifestMatches keeps BENCHMARK.json and the tables in this package
// from drifting: same workloads and reasons, same metrics, units,
// directions and bounds.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, bench has %d", len(m.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if m.Workloads[i].Name != wl.name || m.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: manifest %+v, bench {%s %s}", i, m.Workloads[i], wl.name, wl.why)
		}
	}
	check := func(kind string, got []manifestMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, bench has %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: manifest %+v, bench %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	// ISSUE 15 caps a bound at 0.10: a metric that cannot honour that is a
	// diagnostic. setup_s alone cannot be demoted — a benchmark must gate
	// it — so it takes the benchmark contract's cap of 0.25 (README.md).
	for _, e := range endToEnd {
		limit := 0.10
		if e.name == "setup_s" {
			limit = 0.25
		}
		if e.bound <= 0 || e.bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", e.name, e.bound, limit)
		}
	}
}

func quiet(t *testing.T) {
	t.Helper()
	old := logOut
	logOut = io.Discard
	t.Cleanup(func() { logOut = old })
}

// TestSmokeEveryWorkload runs every workload with a 1 s window and no traced
// phase. runWorkload itself fails on a wrong answer, a missed intent, a
// failed end-state check or a leaked goroutine; on top of that the result
// must name exactly the metrics the manifest lists.
func TestSmokeEveryWorkload(t *testing.T) {
	quiet(t)
	m := readManifest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, wl := range workloads {
		res, err := runWorkload(ctx, wl, 1, runConfig{seconds: 1, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.correct || res.failed != 0 || res.attempted < 10 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.name, res.correct, res.attempted, res.failed)
		}
		if got, want := keys(res.endToEnd), names(m.EndToEnd); !sameStrings(got, want) {
			t.Errorf("%s: end-to-end metrics %v, manifest %v", wl.name, got, want)
		}
		if got, want := keys(res.perLayer), names(m.PerLayer); !sameStrings(got, want) {
			t.Errorf("%s: per-layer metrics %v, manifest %v", wl.name, got, want)
		}
		for _, e := range endToEnd {
			if v := res.endToEnd[e.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", wl.name, e.name, v)
			}
		}
		for _, traced := range []bool{false, true} {
			line, err := res.jsonLine(traced)
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			var parsed struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatalf("%s: result line does not parse: %v", wl.name, err)
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(parsed.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, manifest %d", wl.name, traced, len(parsed.Metrics), len(want))
			}
			for _, w := range want {
				if got, ok := parsed.Metrics[w.Name]; !ok || got.Unit != w.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", wl.name, traced, w.Name, got.Unit, w.Unit)
				}
			}
		}
	}
}

// TestLadderAddsUp runs the traced phase on the two workloads with the most
// probe variants (Submit twins; invoke twins over two hubs) and checks the
// ladder's identity: adjacent self times sum to the outermost call.
func TestLadderAddsUp(t *testing.T) {
	quiet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, name := range []string{"transfer", "invoke-3hop"} {
		wl, _ := workloadByName(name)
		res, err := runWorkload(ctx, wl, 2, runConfig{seconds: 1, traced: true, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := res.perLayer
		sum := p["core.client_self_ms"] + p["relay.path_self_ms"] + p["relay.source_self_ms"] + p["relay.driver_ms"]
		if math.Abs(sum-p["core.op_ms"]) > 1e-9 || p["core.op_ms"] <= 0 {
			t.Errorf("%s: self times sum to %v, core.op_ms is %v", name, sum, p["core.op_ms"])
		}
		for _, row := range []string{"relay.origin_ms", "relay.source_ms", "relay.driver_ms", "fabric.read_ms", "wire.request_bytes", "wire.response_bytes"} {
			if p[row] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, row, p[row])
			}
		}
		if name == "transfer" {
			if p["fabric.submit_put_ms"] <= 0 || p["fabric.submit_accept_ms"] <= 0 || p["core.query_stage_ms"] <= 0 {
				t.Errorf("transfer: submit/query stage rows missing: %v %v %v", p["fabric.submit_put_ms"], p["fabric.submit_accept_ms"], p["core.query_stage_ms"])
			}
		}
	}
}
