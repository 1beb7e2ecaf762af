package relay

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The reference journal's addresses. Each record's length fixes the byte
// offsets the subtests below are named by.
const (
	committed1 = "relay-a.committed.example.net:1"
	committed2 = "relay-b.committed.example.net:2"
	torn3      = "relay-c.torn.example.net:3"
)

// TestJournalTornAppendRecovery is the crash-consistency contract: for a
// journal whose writer died mid-append, truncated at *every* byte boundary
// of the final record, a fresh reader recovers exactly the committed
// prefix — the torn tail is skipped, never fatal — and the next append
// self-heals the tail so both the old prefix and the new record survive.
func TestJournalTornAppendRecovery(t *testing.T) {
	// Build a reference journal: two committed records, then a final
	// record that the crash will tear.
	build := func(t *testing.T, dir string) (path string, wholeSize, prefixLines int64) {
		t.Helper()
		path = filepath.Join(dir, "registry.jsonl")
		reg := NewJournalRegistry(path)
		if err := reg.RegisterLease("net", committed1, time.Hour); err != nil {
			t.Fatalf("RegisterLease: %v", err)
		}
		if err := reg.RegisterLease("net", committed2, time.Hour); err != nil {
			t.Fatalf("RegisterLease: %v", err)
		}
		if err := reg.RegisterLease("net", torn3, time.Hour); err != nil {
			t.Fatalf("RegisterLease: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		if len(lines) != 3 {
			t.Fatalf("reference journal has %d lines, want 3", len(lines))
		}
		// Byte offset where the final record starts.
		prefixLines = int64(len(data) - len(lines[2]) - 1)
		return path, int64(len(data)), prefixLines
	}

	refDir := t.TempDir()
	_, wholeSize, finalStart := build(t, refDir)

	for cut := finalStart; cut <= wholeSize; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("truncate-at-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			path, size, start := build(t, dir)
			if size != wholeSize || start != finalStart {
				t.Fatalf("journal not deterministic: size %d/%d, final start %d/%d", size, wholeSize, start, finalStart)
			}
			if err := os.Truncate(path, cut); err != nil {
				t.Fatalf("Truncate: %v", err)
			}

			reader := NewJournalRegistry(path)
			addrs, err := reader.Resolve("net")
			if err != nil {
				t.Fatalf("Resolve over torn journal must not fail: %v", err)
			}
			if !containsAddr(addrs, committed1) || !containsAddr(addrs, committed2) {
				t.Fatalf("committed prefix lost: %v", addrs)
			}
			wantTorn := cut == wholeSize // only the untruncated journal keeps the final record
			if containsAddr(addrs, torn3) != wantTorn {
				t.Fatalf("torn record visibility = %v at cut %d, want %v (addrs %v)", !wantTorn, cut, wantTorn, addrs)
			}

			// The next append self-heals the tail: a writer terminates the
			// partial line before its own record, so the prefix, the healed
			// journal, and the new record all coexist.
			writer := NewJournalRegistry(path)
			if err := writer.RegisterLease("net", "healed:4", time.Hour); err != nil {
				t.Fatalf("post-crash append: %v", err)
			}
			after := NewJournalRegistry(path)
			addrs, err = after.Resolve("net")
			if err != nil {
				t.Fatalf("Resolve after self-heal: %v", err)
			}
			for _, want := range []string{committed1, committed2, "healed:4"} {
				if !containsAddr(addrs, want) {
					t.Fatalf("address %s missing after self-heal: %v", want, addrs)
				}
			}
			// A mid-record cut leaves one undecodable healed line; the
			// reader records the skip instead of failing. (Cutting only the
			// trailing newline leaves complete JSON, which the heal
			// legitimately recovers rather than skips.)
			if cut > finalStart && cut < wholeSize-1 && after.SkippedRecords() == 0 {
				t.Fatalf("cut %d: torn line silently vanished (no skip recorded)", cut)
			}
		})
	}
}

// TestJournalTornTailThenCompaction: compaction over a torn journal keeps
// the committed prefix and writes a clean snapshot — the torn line does
// not survive into the next generation.
func TestJournalTornTailThenCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.jsonl")
	reg := NewJournalRegistry(path)
	if err := reg.RegisterLease("net", "committed:1", time.Hour); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if err := reg.RegisterLease("net", "torn:2", time.Hour); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	fresh := NewJournalRegistry(path)
	if err := fresh.Compact(); err != nil {
		t.Fatalf("Compact over torn journal: %v", err)
	}
	addrs, err := fresh.Resolve("net")
	if err != nil || !containsAddr(addrs, "committed:1") || containsAddr(addrs, "torn:2") {
		t.Fatalf("post-compaction Resolve = %v, %v, want just the committed prefix", addrs, err)
	}
	// The snapshot is fully decodable: a new reader reports zero skips.
	clean := NewJournalRegistry(path)
	if _, err := clean.Resolve("net"); err != nil {
		t.Fatalf("clean reader Resolve: %v", err)
	}
	if clean.SkippedRecords() != 0 {
		t.Fatalf("snapshot carried %d undecodable lines", clean.SkippedRecords())
	}
}

// TestJournalEmptyAndWhitespaceLines: blank lines (an operator's stray
// newline) are tolerated, and a journal that is *all* garbage still yields
// an empty registry rather than an error — append-only logs degrade to
// their decodable prefix, they do not brick discovery.
func TestJournalGarbageTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.jsonl")
	content := "\n{\"op\":\"lease\",\"net\":\"net\",\"addr\":\"good:1\"}\n\nnot json at all\n{\"op\":\"lease\",\"net\":\"net\",\"addr\":\"good:2\"}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewJournalRegistry(path)
	addrs, err := reg.Resolve("net")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("Resolve = %v, %v, want both good records", addrs, err)
	}
	if reg.SkippedRecords() != 1 {
		t.Fatalf("SkippedRecords = %d, want 1 (the garbage line)", reg.SkippedRecords())
	}

	allGarbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(allGarbage, []byte("junk\nmore junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := NewJournalRegistry(allGarbage)
	if _, err := g.Resolve("net"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("all-garbage journal Resolve err = %v, want ErrUnknownNetwork", err)
	}
}
