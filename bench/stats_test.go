package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 100, 7},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 3 {
		t.Errorf("median = %v, want the nearest-rank 3", got)
	}
	if in[0] != 9 || in[3] != 3 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestSortedMillisMergesClients(t *testing.T) {
	got := sortedMillis([]time.Duration{3 * time.Millisecond, time.Millisecond}, []time.Duration{2500 * time.Microsecond})
	want := []float64{1, 2.5, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// The ladder's self times are differences of adjacent depths and must add
// back up to the outermost call — here with the ISSUE's scratch numbers
// (client 1.1, path 1.2, source relay 0.07, driver 2.8).
func TestSelfTimesSumToOutermost(t *testing.T) {
	depths := []float64{5.24, 4.12, 2.90, 2.83}
	self := selfTimes(depths)
	want := []float64{1.12, 1.22, 0.07, 2.83}
	sum := 0.0
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if !near(sum, depths[0]) {
		t.Errorf("self times sum to %v, want %v", sum, depths[0])
	}
	// A deeper probe that reads slower than its caller (noise) yields a
	// negative self time, kept raw so the sum still holds.
	if self := selfTimes([]float64{1.0, 1.1}); !near(self[0], -0.1) || !near(self[1], 1.1) {
		t.Errorf("noisy ladder = %v", self)
	}
	if len(selfTimes(nil)) != 0 {
		t.Error("empty ladder should give no self times")
	}
}

func TestRelGap(t *testing.T) {
	if got := relGap(100, 110); !near(got, 0.10) {
		t.Errorf("relGap(100,110) = %v", got)
	}
	if got := relGap(110, 100); !near(got, 0.10) {
		t.Errorf("relGap is not symmetric: %v", got)
	}
	if relGap(0, 0) != 0 || relGap(0, 1) != 1 {
		t.Error("relGap zero handling")
	}
}

// The set-up clock counts the laps, scaled, and not the kernel it runs
// between them.
func TestRefClockCountsLapsNotKernel(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	c := &refClock{ref: ref}
	begin := time.Now()
	c.start()
	for i := 0; i < 2; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := c.lap(); err != nil {
			t.Fatal(err)
		}
	}
	total := time.Since(begin)
	if c.wall < 10*time.Millisecond || c.wall >= total {
		t.Errorf("laps took %v of %v: want the two 5 ms sleeps and not the kernel", c.wall, total)
	}
	if c.scaled <= 0 {
		t.Errorf("scaled time %v, want > 0", c.scaled)
	}
}
