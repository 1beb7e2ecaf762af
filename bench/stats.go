package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is the 50th percentile of values in any order.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// sortedMillis merges per-client latency samples into one ascending slice
// of milliseconds.
func sortedMillis(perClient ...[]time.Duration) []float64 {
	var out []float64
	for _, lat := range perClient {
		for _, d := range lat {
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// selfTimes turns the probe ladder's p50s (outermost call first) into
// per-layer self times: each depth minus the one below it, the innermost
// kept whole. The values are raw differences of medians, so a layer that
// costs less than the noise can read slightly negative — and they sum to
// depths[0] exactly.
func selfTimes(depths []float64) []float64 {
	self := make([]float64, len(depths))
	for i := range depths {
		self[i] = depths[i]
		if i+1 < len(depths) {
			self[i] -= depths[i+1]
		}
	}
	return self
}

// relGap is the distance between a and b as a share of the smaller: the
// relative worsening a gate sees going from the better value to the worse.
func relGap(a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if hi == lo {
		return 0
	}
	if lo <= 0 {
		return 1
	}
	return (hi - lo) / lo
}
