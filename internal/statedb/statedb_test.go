package statedb

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// tns is the chaincode namespace most tests operate in.
const tns = "cc"

func TestGetAbsent(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(tns, "nope"); ok {
		t.Fatal("Get on empty store returned ok")
	}
}

func TestNamespaceIsolation(t *testing.T) {
	s := NewStore()
	s.ApplyWrites([]Write{
		{Namespace: "ccA", Key: "k", Value: []byte("a")},
		{Namespace: "ccB", Key: "k", Value: []byte("b")},
	}, Version{BlockNum: 1})
	va, _ := s.Get("ccA", "k")
	vb, _ := s.Get("ccB", "k")
	if !bytes.Equal(va.Value, []byte("a")) || !bytes.Equal(vb.Value, []byte("b")) {
		t.Fatalf("namespaces alias: a=%q b=%q", va.Value, vb.Value)
	}
	s.ApplyWrites([]Write{{Namespace: "ccA", Key: "k", IsDelete: true}}, Version{BlockNum: 2})
	if _, ok := s.Get("ccA", "k"); ok {
		t.Fatal("delete in ccA did not take")
	}
	if _, ok := s.Get("ccB", "k"); !ok {
		t.Fatal("delete in ccA leaked into ccB")
	}
	if got := s.Namespaces(); len(got) != 1 || got[0] != "ccB" {
		t.Fatalf("Namespaces = %v, want [ccB]", got)
	}
}

func TestApplyWritesAndGet(t *testing.T) {
	s := NewStore()
	v := Version{BlockNum: 3, TxNum: 1}
	s.ApplyWrites([]Write{
		{Namespace: tns, Key: "a", Value: []byte("1")},
		{Namespace: tns, Key: "b", Value: []byte("2")},
	}, v)
	vv, ok := s.Get(tns, "a")
	if !ok || !bytes.Equal(vv.Value, []byte("1")) || vv.Version != v {
		t.Fatalf("Get(a) = %+v, %v", vv, ok)
	}
	if s.Keys() != 2 {
		t.Fatalf("Keys = %d", s.Keys())
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	s.ApplyWrites([]Write{{Namespace: tns, Key: "a", Value: []byte("1")}}, Version{BlockNum: 1})
	s.ApplyWrites([]Write{{Namespace: tns, Key: "a", IsDelete: true}}, Version{BlockNum: 2})
	if _, ok := s.Get(tns, "a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	s := NewStore()
	s.ApplyWrites([]Write{{Namespace: tns, Key: "k", Value: []byte("v1")}}, Version{BlockNum: 1, TxNum: 0})
	s.ApplyWrites([]Write{{Namespace: tns, Key: "k", Value: []byte("v2")}}, Version{BlockNum: 2, TxNum: 5})
	ver, ok := s.Version(tns, "k")
	if !ok || ver != (Version{BlockNum: 2, TxNum: 5}) {
		t.Fatalf("Version = %+v, %v", ver, ok)
	}
}

// TestValueIsolation: the store hands out what it holds in place but
// read-only — a read value's capacity is its length, so a reader's append
// cannot write into the store, and a later commit replaces a value without
// writing into the bytes a reader holds. The store keeps the values it is
// given; that no caller's buffer reaches it is the write set's contract
// (chaincode PutState copies), which
// TestValueIsolationCommittedAfterPutStateRewrite holds on every peer.
func TestValueIsolation(t *testing.T) {
	s := NewStore()
	// Values with slack capacity, as a block's write values may have.
	s.ApplyWrites([]Write{
		{Namespace: tns, Key: "k", Value: append(make([]byte, 0, 16), "mutable"...)},
		{Namespace: tns, Key: "l", Value: append(make([]byte, 0, 16), "scanned"...)},
	}, Version{})
	vv, _ := s.Get(tns, "k")

	scanned := s.Range(tns, "l", "")[0].Value
	for name, v := range map[string][]byte{"Get": vv.Value, "Range": scanned} {
		if cap(v) != len(v) {
			t.Fatalf("%s value has cap %d, len %d: an append would write past it", name, cap(v), len(v))
		}
		if grown := append(v, "-appended"...); &grown[0] == &v[0] {
			t.Fatalf("an append to a %s value grew it in the store's array", name)
		}
	}
	if got, _ := s.Get(tns, "k"); string(got.Value) != "mutable" {
		t.Fatalf("after a reader's append, Get = %q, want mutable", got.Value)
	}
	if got := s.Range(tns, "l", ""); string(got[0].Value) != "scanned" {
		t.Fatalf("after a reader's append, Range = %q, want scanned", got[0].Value)
	}

	s.ApplyWrites([]Write{{Namespace: tns, Key: "k", Value: []byte("MUTABLE")}, {Namespace: tns, Key: "l", Value: []byte("SCANNED")}}, Version{BlockNum: 1})
	s.ApplyWrites([]Write{{Namespace: tns, Key: "k", IsDelete: true}}, Version{BlockNum: 2})
	if string(vv.Value) != "mutable" || string(scanned) != "scanned" {
		t.Fatalf("later commits rewrote values a reader holds: %q, %q", vv.Value, scanned)
	}
}

func TestVersionBefore(t *testing.T) {
	cases := []struct {
		a, b Version
		want bool
	}{
		{Version{1, 0}, Version{2, 0}, true},
		{Version{2, 0}, Version{1, 9}, false},
		{Version{1, 1}, Version{1, 2}, true},
		{Version{1, 2}, Version{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Before(c.b); got != c.want {
			t.Fatalf("%+v.Before(%+v) = %v", c.a, c.b, got)
		}
	}
}

func TestRangeOrderedAndBounded(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"b", "d", "a", "c", "e"} {
		s.ApplyWrites([]Write{{Namespace: tns, Key: k, Value: []byte(k)}}, Version{})
	}
	got := s.Range(tns, "b", "e")
	if len(got) != 3 {
		t.Fatalf("Range returned %d keys", len(got))
	}
	for i, want := range []string{"b", "c", "d"} {
		if got[i].Key != want {
			t.Fatalf("Range[%d] = %q, want %q", i, got[i].Key, want)
		}
	}
}

func TestRangeOpenEnd(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"x1", "x2", "y1"} {
		s.ApplyWrites([]Write{{Namespace: tns, Key: k, Value: []byte(k)}}, Version{})
	}
	got := s.Range(tns, "x2", "")
	if len(got) != 2 || got[0].Key != "x2" || got[1].Key != "y1" {
		t.Fatalf("open-ended Range = %+v", got)
	}
}

// TestRangeAllocations: a scan allocates what it returns — the result,
// sized exactly; the values are the stored ones. ECC.loadRules scans for
// one rule on every attestor's simulation; a fixed 16-entry starting
// capacity made that one-key match cost 1152 B, 1024 of them slack, and a
// copy of each value was one more allocation.
func TestRangeAllocations(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"a", "rule/1", "rule0", "z"} {
		s.ApplyWrites([]Write{{Namespace: tns, Key: k, Value: []byte("v")}}, Version{})
	}
	var got []KV
	scan := func() { got = s.Range(tns, "rule/", "rule0") }
	if allocs := testing.AllocsPerRun(100, scan); allocs != 1 {
		t.Fatalf("a one-key scan makes %v allocations, want 1: the result", allocs)
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		scan()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 256 {
		t.Fatalf("a one-key scan allocates %d B, want ≤ 256", perCall)
	}
	if len(got) != 1 || got[0].Key != "rule/1" || cap(got) != 1 {
		t.Fatalf("Range = %+v (cap %d), want rule/1 alone", got, cap(got))
	}
}

func TestCompositeKeyRoundTrip(t *testing.T) {
	key, err := CompositeKey("shipment", "po-1001", "v2")
	if err != nil {
		t.Fatalf("CompositeKey: %v", err)
	}
	objType, parts := SplitCompositeKey(key)
	if objType != "shipment" || len(parts) != 2 || parts[0] != "po-1001" || parts[1] != "v2" {
		t.Fatalf("SplitCompositeKey = %q, %q", objType, parts)
	}
}

// TestCompositeKeyInterned: a key built before is the interned string
// itself, at no allocation; the intern table never holds more than
// keysMax keys; and no key, short or past maxInternedKey, aliases the
// bytes of a part, so a caller that rewrites a part's buffer after the call
// cannot rewrite the key or an entry of the table.
func TestCompositeKeyInterned(t *testing.T) {
	first, _ := CompositeKey("shipment", "po-1001")
	again, _ := CompositeKey("shipment", "po-1001")
	if first != "shipment\x00po-1001" || unsafe.StringData(first) != unsafe.StringData(again) {
		t.Fatalf("a repeated key is %q, not the interned %q", again, first)
	}
	if got := testing.AllocsPerRun(100, func() { sinkKey, _ = CompositeKey("shipment", "po-1001") }); got != 0 {
		t.Fatalf("a repeated key costs %v allocations, want 0", got)
	}

	for i := range keysMax + 10 {
		if _, err := CompositeKey("nonce", strconv.Itoa(i)); err != nil {
			t.Fatalf("CompositeKey: %v", err)
		}
		if n := keys.Len(); n > keysMax {
			t.Fatalf("the intern table holds %d keys after %d new ones, want <= %d", n, i+1, keysMax)
		}
	}

	for _, size := range []int{8, maxInternedKey + 1} {
		buf := bytes.Repeat([]byte("a"), size)
		part := unsafe.String(&buf[0], len(buf)) // a view, as chaincode.ReadOnlyBytes makes
		key, err := CompositeKey("t", part)
		if err != nil {
			t.Fatalf("CompositeKey: %v", err)
		}
		want := "t\x00" + strings.Repeat("a", size)
		copy(buf, bytes.Repeat([]byte("b"), size))
		if key != want {
			t.Fatalf("%d-byte part: the key reads %q after its part was rewritten", size, key)
		}
		if again, _ := CompositeKey("t", strings.Repeat("a", size)); again != want {
			t.Fatalf("%d-byte part: the key built again reads %q", size, again)
		}
		if rewritten, _ := CompositeKey("t", part); rewritten != "t\x00"+strings.Repeat("b", size) {
			t.Fatalf("%d-byte part: the rewritten part's key reads %q", size, rewritten)
		}
	}
}

var sinkKey string

func TestCompositeKeyRejectsSeparator(t *testing.T) {
	if _, err := CompositeKey("a\x00b"); err == nil {
		t.Fatal("object type with separator accepted")
	}
	if _, err := CompositeKey("t", "a\x00b"); err == nil {
		t.Fatal("part with separator accepted")
	}
	if _, err := CompositeKey(""); err == nil {
		t.Fatal("empty object type accepted")
	}
}

func TestCompositeRangeCoversChildren(t *testing.T) {
	s := NewStore()
	mk := func(parts ...string) string {
		k, err := CompositeKey("lc", parts...)
		if err != nil {
			t.Fatalf("CompositeKey: %v", err)
		}
		return k
	}
	s.ApplyWrites([]Write{
		{Namespace: tns, Key: mk("bank1", "lc-1"), Value: []byte("a")},
		{Namespace: tns, Key: mk("bank1", "lc-2"), Value: []byte("b")},
		{Namespace: tns, Key: mk("bank2", "lc-3"), Value: []byte("c")},
	}, Version{})
	start, end, err := CompositeRange("lc", "bank1")
	if err != nil {
		t.Fatalf("CompositeRange: %v", err)
	}
	got := s.Range(tns, start, end)
	if len(got) != 2 {
		t.Fatalf("composite range returned %d keys, want 2", len(got))
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%10)
				s.ApplyWrites([]Write{{Namespace: tns, Key: key, Value: []byte{byte(g)}}}, Version{BlockNum: uint64(i)})
				s.Get(tns, key)
				s.Range(tns, "k0", "k9")
			}
		}(g)
	}
	wg.Wait()
}

// TestPutGetProperty: whatever is written is read back, for arbitrary keys
// and values.
func TestPutGetProperty(t *testing.T) {
	s := NewStore()
	prop := func(key string, val []byte) bool {
		if key == "" {
			return true
		}
		s.ApplyWrites([]Write{{Namespace: tns, Key: key, Value: val}}, Version{})
		vv, ok := s.Get(tns, key)
		return ok && bytes.Equal(vv.Value, val)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApplyWrites(b *testing.B) {
	s := NewStore()
	w := []Write{{Namespace: tns, Key: "key", Value: make([]byte, 256)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplyWrites(w, Version{BlockNum: uint64(i)})
	}
}

func BenchmarkGet(b *testing.B) {
	s := NewStore()
	s.ApplyWrites([]Write{{Namespace: tns, Key: "key", Value: make([]byte, 256)}}, Version{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(tns, "key")
	}
}

// TestCompositeRangeCoversHighBytes: a part whose first byte is 0xff still
// falls inside its object type's range. An end bound of prefix+"\xff" cut
// such keys off, so a scan silently skipped them.
func TestCompositeRangeCoversHighBytes(t *testing.T) {
	s := NewStore()
	var want []string
	for _, po := range []string{"po-1", "\xffpo", "\xff\xff"} {
		key, err := CompositeKey("shipment", po)
		if err != nil {
			t.Fatalf("CompositeKey: %v", err)
		}
		want = append(want, key)
		s.ApplyWrites([]Write{{Namespace: tns, Key: key, Value: []byte(po)}}, Version{})
	}
	other, _ := CompositeKey("shipmentx", "po-1")
	s.ApplyWrites([]Write{{Namespace: tns, Key: other, Value: []byte("other")}}, Version{})
	start, end, err := CompositeRange("shipment")
	if err != nil {
		t.Fatalf("CompositeRange: %v", err)
	}
	got := s.Range(tns, start, end)
	if len(got) != len(want) {
		t.Fatalf("Range returned %d keys, want %d: %q", len(got), len(want), got)
	}
	sort.Strings(want)
	for i, kv := range got {
		if kv.Key != want[i] {
			t.Fatalf("Range[%d] = %q, want %q", i, kv.Key, want[i])
		}
	}
}

// FuzzCompositeRange: every composite key lies in the range of each strict
// prefix of its parts, and no key of another object type does.
func FuzzCompositeRange(f *testing.F) {
	f.Add("shipment", "bl", "po-1", "\xffpo", "")
	f.Add("lc", "lcx", "bank1", "lc-1", "\xff")
	f.Add("a", "ab", "", "", "")
	f.Fuzz(func(t *testing.T, objectType, otherType, a, b, c string) {
		parts := []string{a, b, c}
		key, err := CompositeKey(objectType, parts...)
		if err != nil {
			return
		}
		otherKey, err := CompositeKey(otherType, parts...)
		if err != nil || otherType == objectType {
			otherKey = ""
		}
		for k := 0; k < len(parts); k++ {
			start, end, err := CompositeRange(objectType, parts[:k]...)
			if err != nil {
				t.Fatalf("CompositeRange(%q, %q): %v", objectType, parts[:k], err)
			}
			if key < start || key >= end {
				t.Fatalf("key %q outside CompositeRange(%q, %q) = [%q, %q)", key, objectType, parts[:k], start, end)
			}
			if otherKey != "" && otherKey >= start && otherKey < end {
				t.Fatalf("key %q of type %q inside CompositeRange(%q, %q) = [%q, %q)", otherKey, otherType, objectType, parts[:k], start, end)
			}
		}
	})
}
