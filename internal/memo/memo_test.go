package memo

import (
	"strconv"
	"testing"
)

// TestTableBoundedAndOwnsKeys: a full table is dropped wholesale rather
// than grown, and Put takes a byte key as a string, a copy, so a caller
// reusing its buffer cannot rewrite an entry.
func TestTableBoundedAndOwnsKeys(t *testing.T) {
	tab := Table[[]byte, int]{Max: 4}
	for i := 0; i < 10; i++ {
		tab.Put("k"+strconv.Itoa(i), i)
		if n := tab.Len(); n > tab.Max {
			t.Fatalf("table holds %d > %d after %d puts", n, tab.Max, i+1)
		}
	}
	key := []byte("reused")
	tab.Put(string(key), 1)
	copy(key, "REUSED")
	if v, ok := tab.Get([]byte("reused")); !ok || v != 1 {
		t.Fatalf("Get(reused) = %d, %v after the caller rewrote its key", v, ok)
	}
	if _, ok := tab.Get(key); ok {
		t.Fatal("the rewritten key hit")
	}
}

// TestTableLookupAllocations: a lookup by either key kind allocates
// nothing, hit or miss.
func TestTableLookupAllocations(t *testing.T) {
	byString := Table[string, int]{Max: 4}
	byBytes := Table[[]byte, int]{Max: 4}
	long := string(make([]byte, 100))
	byString.Put(long, 1)
	byBytes.Put(long, 1)
	key := []byte(long)
	for name, fn := range map[string]func(){
		"string hit":  func() { byString.Get(long) },
		"string miss": func() { byString.Get("absent") },
		"bytes hit":   func() { byBytes.Get(key) },
		"bytes miss":  func() { byBytes.Get(key[1:]) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Fatalf("%s: %v allocations, want 0", name, got)
		}
	}
}
