package relay

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Known-answer vector for the lease journal's on-disk bytes (after
// SNIPPETS.md 1–2): a fixed clock, one lease with an expiry, one permanent
// lease and a deregistration, then a compaction. The generation-0 journal
// is kept as the grace copy, so all three files are pinned. A change to
// any of these bytes changes what existing deployments read back, so it
// must be a deliberate vector update — never a refactor side effect.
const (
	vectorGen0 = `{"op":"lease","net":"tradelens","addr":"10.0.0.1:9080","exp":1700000030000000000,"ts":1700000000000000000}
{"op":"lease","net":"tradelens","addr":"10.0.0.2:9080","ts":1700000000000000000}
{"op":"lease","net":"wetrade","addr":"10.0.1.1:9080","ts":1700000000000000000}
{"op":"dereg","net":"wetrade","addr":"10.0.1.1:9080","ts":1700000000000000000}
`
	vectorGen1 = `{"op":"lease","net":"tradelens","addr":"10.0.0.1:9080","exp":1700000030000000000,"ts":1700000000000000000}
{"op":"lease","net":"tradelens","addr":"10.0.0.2:9080","ts":1700000000000000000}
`
	vectorPointer = `1`
)

var vectorEntries = map[string][]RegistryEntry{"tradelens": {
	{Addr: "10.0.0.1:9080", ExpiresUnixNano: 1_700_000_030_000_000_000},
	{Addr: "10.0.0.2:9080"},
}}

func vectorClock() time.Time { return time.Unix(1_700_000_000, 0) }

// vectorRegistry writes files into a fresh directory and opens a journal
// over it on the vector clock.
func vectorRegistry(t *testing.T, files map[string]string) (*JournalRegistry, string) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := journalAt(t, dir)
	r.now = vectorClock
	return r, dir
}

func TestJournalKnownAnswerBytes(t *testing.T) {
	reg, dir := vectorRegistry(t, nil)
	steps := []func() error{
		func() error { return reg.RegisterLease("tradelens", "10.0.0.1:9080", 30*time.Second) },
		func() error { return reg.RegisterLease("tradelens", "10.0.0.2:9080", 0) },
		func() error { return reg.RegisterLease("wetrade", "10.0.1.1:9080", 0) },
		func() error { return reg.Deregister("wetrade", "10.0.1.1:9080") },
		reg.Compact,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	for name, want := range map[string]string{
		"registry.jsonl":     vectorGen0,
		"registry.jsonl.1":   vectorGen1,
		"registry.jsonl.gen": vectorPointer,
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if string(got) != want {
			t.Errorf("%s bytes changed:\n got %q\nwant %q", name, got, want)
		}
	}

	// A fresh instance materializes the same view from the committed bytes,
	// from the uncompacted journal alone and from the compacted generation.
	// A record that still carries the retired "ttl" key reads the same: the
	// key is ignored, and the lease expires at its "exp".
	withTTL := strings.Replace(vectorGen0, `"exp":1700000030000000000,`, `"exp":1700000030000000000,"ttl":30000000000,`, 1)
	for name, files := range map[string]map[string]string{
		"generation 0":                  {"registry.jsonl": vectorGen0},
		"generation 0, retired ttl key": {"registry.jsonl": withTTL},
		"generation 1":                  {"registry.jsonl.1": vectorGen1, "registry.jsonl.gen": vectorPointer},
	} {
		r, _ := vectorRegistry(t, files)
		if got, err := r.Entries(); err != nil || !reflect.DeepEqual(got, vectorEntries) {
			t.Errorf("%s materialized %+v, %v, want %+v", name, got, err, vectorEntries)
		}
	}
}
