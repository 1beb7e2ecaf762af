package chaincode

import (
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

// referenceRWSet assembles a read-write set the way rwset did before: reads
// in the order of their joined nsKey strings, writes by sequence number.
func referenceRWSet(c *simContext) ledger.RWSet {
	rw := ledger.RWSet{}
	byKey := make(map[string]ledger.KVRead, len(c.readVers))
	readKeys := make([]string, 0, len(c.readVers))
	for s, r := range c.readVers {
		k := nsKey(s.ns, s.key)
		byKey[k] = r
		readKeys = append(readKeys, k)
	}
	sort.Strings(readKeys)
	for _, k := range readKeys {
		rw.Reads = append(rw.Reads, byKey[k])
	}
	ordered := make([]pendingWrite, 0, len(c.writes))
	for _, w := range c.writes {
		ordered = append(ordered, w)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	for _, w := range ordered {
		rw.Writes = append(rw.Writes, ledger.KVWrite{Namespace: w.ns, Key: w.key, Value: w.value, IsDelete: w.isDelete})
	}
	return rw
}

// TestRWSetMatchesNSKeyOrder: the slot-keyed rwset returns the same reads
// and writes, in the same order, as the nsKey-string reference, over random
// invocations whose namespaces are prefixes of each other and whose keys
// hold U+0000 and 0xff. The read-set order is signed, so a difference here
// is a format change. A fixed case pins the order itself: every "a" read
// precedes every "ab" read, whatever the keys.
func TestRWSetMatchesNSKeyOrder(t *testing.T) {
	f := newFrame(NewRegistry(), statedb.NewStore(), Invocation{TxID: "tx"})
	f.ctx.readVers = make(map[slot]ledger.KVRead)
	for _, r := range []slot{{"ab", "\x00"}, {"a", "\xff"}, {"a", "b\x00"}, {"ab", "a"}, {"a", "b"}} {
		_, _ = (&simStub{ctx: &f.ctx, chaincode: r.ns}).GetState(r.key)
	}
	var order []slot
	for _, r := range f.ctx.rwset().Reads {
		order = append(order, slot{r.Namespace, r.Key})
	}
	want := []slot{{"a", "b"}, {"a", "b\x00"}, {"a", "\xff"}, {"ab", "\x00"}, {"ab", "a"}}
	if !reflect.DeepEqual(order, want) || !reflect.DeepEqual(f.ctx.rwset(), referenceRWSet(&f.ctx)) {
		t.Fatalf("read order = %q, want %q", order, want)
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
	state := statedb.NewStore()
	for i := 0; i < 60; i++ {
		state.ApplyWrites([]statedb.Write{{Namespace: namespaces[rng.Intn(len(namespaces))], Key: randKey(), Value: []byte{byte(i)}}},
			statedb.Version{BlockNum: uint64(i)})
	}
	for round := 0; round < 200; round++ {
		f := newFrame(NewRegistry(), state, Invocation{TxID: "tx"})
		f.ctx.readVers = make(map[slot]ledger.KVRead)
		for op := rng.Intn(12); op >= 0; op-- {
			stub := &simStub{ctx: &f.ctx, chaincode: namespaces[rng.Intn(len(namespaces))]}
			switch rng.Intn(4) {
			case 0:
				_, _ = stub.GetState(randKey())
			case 1:
				_, _ = stub.GetStateRange(randKey(), randKey())
			case 2:
				_ = stub.PutState(randKey(), []byte{byte(op)})
			default:
				_ = stub.DelState(randKey())
			}
		}
		got, want := f.ctx.rwset(), referenceRWSet(&f.ctx)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d:\nrwset     %+v\nreference %+v", round, got, want)
		}
	}
}
