package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},
		{[]float64{10, 20, 30, 40, 50}, 0.5, 30},
	}
	for _, c := range cases {
		if got := quantile(c.vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.vals, c.q, got, c.want)
		}
	}
	// The input is left unsorted: callers pass runs in run order.
	vals := []float64{3, 1, 2}
	quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("quantile reordered its input: %v", vals)
	}
}

func TestSignTest(t *testing.T) {
	cases := []struct {
		wins, losses int
		want         float64
	}{
		{0, 0, 1},
		{5, 5, 1},
		{10, 0, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := signTest(c.wins, c.losses); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", c.wins, c.losses, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	// Ten tight base runs around 1.0 (q3−q1 = 0.0045).
	base := []float64{0.995, 0.996, 0.997, 0.998, 0.999, 1.000, 1.001, 1.002, 1.003, 1.004}
	shift := func(vals []float64, by float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v + by
		}
		return out
	}
	cases := []struct {
		name       string
		base, head []float64
		higher     bool
		bound      float64
		want       string
	}{
		{"every pair won, far beyond the spread", base, shift(base, -0.5), false, 0.25, "gain"},
		{"higher is better", base, shift(base, 0.5), true, 0.25, "gain"},
		{"nine of ten pairs is enough",
			base, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.1}, false, 0.25, "gain"},
		{"eight of ten pairs is not",
			base, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.1, 1.1}, false, 0.25, "ok"},
		{"every pair won, but within the base spread", base, shift(base, -0.001), false, 0.25, "ok"},
		{"identical", base, base, false, 0.02, "ok"},
		{"worse beyond the bound", base, shift(base, 0.03), false, 0.02, "worse"},
		{"worse within the bound", base, shift(base, 0.01), false, 0.02, "ok"},
		{"worse beyond the bound, higher is better", base, shift(base, -0.03), true, 0.02, "worse"},
		{"base spread wider than the bound",
			[]float64{0.8, 0.9, 1.0, 1.1, 1.2}, []float64{0.85, 0.95, 1.0, 1.05, 1.15}, false, 0.1, "unresolved"},
		{"wide base spread, but every HEAD run beats every base run",
			[]float64{0.9, 0.95, 1.0, 1.5, 1.6}, []float64{0.80, 0.82, 0.85, 0.87, 0.89}, false, 0.1, "ok"},
		{"worse takes precedence over unresolved",
			[]float64{0.8, 0.9, 1.0, 1.1, 1.2}, []float64{1.3, 1.4, 1.5, 1.6, 1.7}, false, 0.1, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.head, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
