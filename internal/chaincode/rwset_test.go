package chaincode

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

// nsKey is the read-set key the context used before it keyed its maps by
// slot: namespace and key joined by U+0000, which no namespace holds.
func nsKey(ns, key string) string { return ns + "\x00" + key }

// rwOracle is the read-write set model the recording context is held to,
// built beside it from the same operations: a map of each key's first
// observed read, as the context kept before it recorded reads in a slice,
// and each key's latest write.
type rwOracle struct {
	state  *statedb.Store
	reads  map[string]ledger.KVRead // by nsKey
	writes map[string]ledger.KVWrite
	seq    map[string]int
	n      int
}

func newOracle(state *statedb.Store) *rwOracle {
	return &rwOracle{state: state, reads: map[string]ledger.KVRead{}, writes: map[string]ledger.KVWrite{}, seq: map[string]int{}}
}

func (o *rwOracle) get(ns, key string) {
	k := nsKey(ns, key)
	if _, written := o.writes[k]; written {
		return // read-your-writes records nothing
	}
	if _, seen := o.reads[k]; !seen {
		vv, ok := o.state.Get(ns, key)
		o.reads[k] = ledger.KVRead{Namespace: ns, Key: key, Version: vv.Version, Exists: ok}
	}
}

func (o *rwOracle) scan(ns, start, end string) {
	for _, kv := range o.state.Range(ns, start, end) {
		k := nsKey(ns, kv.Key)
		if _, seen := o.reads[k]; !seen {
			o.reads[k] = ledger.KVRead{Namespace: ns, Key: kv.Key, Version: kv.Version, Exists: true}
		}
	}
}

func (o *rwOracle) put(ns, key string, value []byte, del bool) {
	k := nsKey(ns, key)
	o.n++
	o.writes[k] = ledger.KVWrite{Namespace: ns, Key: key, Value: value, IsDelete: del}
	o.seq[k] = o.n
}

// rwset is the oracle's read-write set: reads in the order of their joined
// nsKey strings, writes in the order of their latest write.
func (o *rwOracle) rwset() ledger.RWSet {
	rw := ledger.RWSet{}
	readKeys := make([]string, 0, len(o.reads))
	for k := range o.reads {
		readKeys = append(readKeys, k)
	}
	sort.Strings(readKeys)
	for _, k := range readKeys {
		rw.Reads = append(rw.Reads, o.reads[k])
	}
	writeKeys := make([]string, 0, len(o.writes))
	for k := range o.writes {
		writeKeys = append(writeKeys, k)
	}
	sort.Slice(writeKeys, func(i, j int) bool { return o.seq[writeKeys[i]] < o.seq[writeKeys[j]] })
	for _, k := range writeKeys {
		rw.Writes = append(rw.Writes, o.writes[k])
	}
	return rw
}

// recordingFrame returns a stub that records its read-write set, as
// Simulate's does.
func recordingFrame(state *statedb.Store) *simStub {
	return &simStub{reg: NewRegistry(), state: state, inv: Invocation{TxID: "tx"}, record: true}
}

// in points the stub at namespace ns, as a cross-chaincode call does.
func (s *simStub) in(ns string) *simStub {
	s.inv.Chaincode = ns
	return s
}

// TestRWSetMatchesNSKeyOrder: the recorded rwset returns the same reads and
// writes, in the same order, as the map oracle, over random invocations
// whose namespaces are prefixes of each other, whose keys hold U+0000 and
// 0xff, and during which other transactions commit; then over longer ones
// that rewrite and delete keys again and again, a few keys or many more
// than writeScan, reading their own writes back. The read-set order is
// signed, so a difference here is a format change. Fixed cases pin the
// order itself (every "a" read precedes every "ab" read, whatever the
// keys), that a key read twice across a commit keeps the version first
// observed, that a point read and a range read of one key record it
// once, and that a rewrite moves its key behind every other write, below
// the scan bound and past it.
func TestRWSetMatchesNSKeyOrder(t *testing.T) {
	f := recordingFrame(statedb.NewStore())
	o := newOracle(f.state)
	for _, r := range []slot{{"ab", "\x00"}, {"a", "\xff"}, {"a", "b\x00"}, {"ab", "a"}, {"a", "b"}, {"a", "\xff"}} {
		_, _ = f.in(r.ns).GetState(r.key)
		o.get(r.ns, r.key)
	}
	var order []slot
	for _, r := range f.rwset().Reads {
		order = append(order, slot{r.Namespace, r.Key})
	}
	want := []slot{{"a", "b"}, {"a", "b\x00"}, {"a", "\xff"}, {"ab", "\x00"}, {"ab", "a"}}
	if !reflect.DeepEqual(order, want) || !reflect.DeepEqual(f.rwset(), o.rwset()) {
		t.Fatalf("read order = %q, want %q", order, want)
	}

	state := statedb.NewStore()
	v1, v2 := statedb.Version{BlockNum: 1}, statedb.Version{BlockNum: 2}
	state.ApplyWrites([]statedb.Write{{Namespace: "a", Key: "k", Value: []byte("1")}, {Namespace: "a", Key: "r", Value: []byte("1")}}, v1)
	f = recordingFrame(state)
	stub := f.in("a")
	_, _ = stub.GetState("k")
	_, _ = stub.GetStateRange("r", "s")
	state.ApplyWrites([]statedb.Write{{Namespace: "a", Key: "k", Value: []byte("2")}, {Namespace: "a", Key: "r", Value: []byte("2")}}, v2)
	_, _ = stub.GetStateRange("k", "l")
	if got, _ := stub.GetState("k"); string(got) != "2" {
		t.Fatalf("GetState after the commit = %q, want the committed 2", got)
	}
	_, _ = stub.GetState("r")
	wantReads := []ledger.KVRead{
		{Namespace: "a", Key: "k", Version: v1, Exists: true},
		{Namespace: "a", Key: "r", Version: v1, Exists: true},
	}
	if got := f.rwset().Reads; !reflect.DeepEqual(got, wantReads) {
		t.Fatalf("reads of keys read again across a commit = %+v, want each once at its first version %+v", got, wantReads)
	}

	namespaces := []string{"a", "ab", "a\xff", "b"}
	pieces := []string{"k", "\x00", "\xff", "a", "ab", "\x01"}
	rng := rand.New(rand.NewSource(35))
	randKey := func() string {
		k := ""
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k += pieces[rng.Intn(len(pieces))]
		}
		return k
	}
	state = statedb.NewStore()
	block := uint64(0)
	commit := func() {
		block++
		state.ApplyWrites([]statedb.Write{{Namespace: namespaces[rng.Intn(len(namespaces))], Key: randKey(), Value: []byte{byte(block)}}},
			statedb.Version{BlockNum: block})
	}
	for range 60 {
		commit()
	}
	for round := 0; round < 200; round++ {
		f := recordingFrame(state)
		o := newOracle(state)
		for op := rng.Intn(12); op >= 0; op-- {
			ns := namespaces[rng.Intn(len(namespaces))]
			stub := f.in(ns)
			switch key := randKey(); rng.Intn(5) {
			case 0:
				_, _ = stub.GetState(key)
				o.get(ns, key)
			case 1:
				end := randKey()
				_, _ = stub.GetStateRange(key, end)
				o.scan(ns, key, end)
			case 2:
				_ = stub.PutState(key, []byte{byte(op)})
				o.put(ns, key, []byte{byte(op)}, false)
			case 3:
				_ = stub.DelState(key)
				o.put(ns, key, nil, true)
			default:
				commit() // another transaction commits mid-simulation
			}
		}
		got, want := f.rwset(), o.rwset()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d:\nrwset  %+v\noracle %+v", round, got, want)
		}
	}

	for _, n := range []int{3, writeScan, writeScan + 1, 3 * writeScan} {
		f := recordingFrame(statedb.NewStore())
		stub := f.in("a")
		for i := range n {
			_ = stub.PutState(fmt.Sprint("k", i), []byte{byte(i)})
		}
		_ = stub.PutState("k0", []byte("again"))
		_ = stub.DelState("k1")
		var order []string
		for _, w := range f.rwset().Writes {
			order = append(order, w.Key)
		}
		want := []string{}
		for i := 2; i < n; i++ {
			want = append(want, fmt.Sprint("k", i))
		}
		want = append(want, "k0", "k1")
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("%d keys: write order %q, want %q", n, order, want)
		}
	}

	for round := 0; round < 200; round++ {
		f := recordingFrame(state)
		o := newOracle(state)
		keys := 1 + rng.Intn(3) // a few keys, rewritten often
		if round%2 == 1 {
			keys = writeScan + rng.Intn(3*writeScan) // past the scan bound
		}
		for op := 0; op < 4*keys; op++ {
			ns := namespaces[rng.Intn(2)]
			stub := f.in(ns)
			key := fmt.Sprint("k", rng.Intn(keys))
			switch rng.Intn(4) {
			case 0:
				got, _ := stub.GetState(key)
				if w, written := o.writes[nsKey(ns, key)]; written && !bytes.Equal(got, w.Value) {
					t.Fatalf("round %d: GetState(%q) = %q, want the buffered %q", round, key, got, w.Value)
				}
				o.get(ns, key)
			case 1:
				_ = stub.DelState(key)
				o.put(ns, key, nil, true)
			default:
				v := []byte{byte(op), byte(op >> 8)}
				_ = stub.PutState(key, v)
				o.put(ns, key, v, false)
			}
		}
		got, want := f.rwset(), o.rwset()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rewrite round %d (%d keys):\nrwset  %+v\noracle %+v", round, keys, got, want)
		}
	}
}
