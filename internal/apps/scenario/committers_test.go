package scenario

import (
	"runtime"
	"testing"
)

// committers are the two GOMAXPROCS settings every invariant suite in this
// package runs under. At one a network checks a block's endorsements on
// the delivering goroutine and each peer applies writes in block order;
// above one the checks run on a pool and a multi-transaction block applies
// level by level, concurrently. The guarantees — exactly-once,
// proof-carrying replay, MVCC — must hold under both.
var committers = []struct {
	name  string
	procs int
}{
	{"serial", 1},
	{"parallel", 4},
}

// forEachCommitter runs a scenario once per commit engine as subtests,
// pinning GOMAXPROCS for the subtest's duration.
func forEachCommitter(t *testing.T, scenario func(t *testing.T)) {
	for _, c := range committers {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(c.procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			scenario(t)
		})
	}
}
