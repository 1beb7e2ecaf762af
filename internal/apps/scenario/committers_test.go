package scenario

import (
	"runtime"
	"testing"
)

// committers are the two peer commit engines every invariant suite in this
// package runs under. A peer picks its engine from GOMAXPROCS: at one it
// commits every block serially, above one it validates blocks of more than
// one transaction with the parallel committer. The guarantees —
// exactly-once, proof-carrying replay, MVCC — must hold under both.
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
