package chaincode

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

func newEnv(t *testing.T) (*Registry, *statedb.Store) {
	t.Helper()
	return NewRegistry(), statedb.NewStore()
}

func inv(cc, fn string, args ...string) Invocation {
	byteArgs := make([][]byte, len(args))
	for i, a := range args {
		byteArgs[i] = []byte(a)
	}
	return Invocation{
		TxID:      "tx-test",
		Chaincode: cc,
		Function:  fn,
		Args:      byteArgs,
		Timestamp: time.Unix(1700000000, 0),
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	reg.Register("b", Func(func(Stub) ([]byte, error) { return nil, nil }))
	reg.Register("a", Func(func(Stub) ([]byte, error) { return nil, nil }))
	names := reg.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if _, err := reg.Get("a"); err != nil {
		t.Fatalf("Get: %v", err)
	}
}

func TestSimulatePutAndRead(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		if err := stub.PutState("greeting", []byte("hello")); err != nil {
			return nil, err
		}
		v, err := stub.GetState("greeting") // read-your-writes
		if err != nil {
			return nil, err
		}
		return v, nil
	}))
	res, err := Simulate(reg, state, inv("cc", "set"))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !bytes.Equal(res.Response, []byte("hello")) {
		t.Fatalf("response = %q", res.Response)
	}
	if len(res.RWSet.Writes) != 1 || res.RWSet.Writes[0].Key != "greeting" || res.RWSet.Writes[0].Namespace != "cc" {
		t.Fatalf("writes = %+v", res.RWSet.Writes)
	}
	// Simulation must not touch committed state.
	if _, ok := state.Get("cc", "greeting"); ok {
		t.Fatal("simulation mutated committed state")
	}
}

// TestValueIsolationPutState: PutState buffers a copy, so a chaincode that
// rewrites its buffer after the call changes neither what it reads back
// nor the write set, whose values a commit stores as they stand.
func TestValueIsolationPutState(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		buf := []byte("original")
		if err := stub.PutState("k", buf); err != nil {
			return nil, err
		}
		copy(buf, "REWRITE!")
		return stub.GetState("k")
	}))
	res, err := Simulate(reg, state, inv("cc", "put"))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if string(res.Response) != "original" {
		t.Fatalf("read-your-writes after a rewrite = %q, want original", res.Response)
	}
	if w := res.RWSet.Writes[0]; string(w.Value) != "original" || cap(w.Value) != len(w.Value) {
		t.Fatalf("write set holds %q (cap %d), want original clipped", w.Value, cap(w.Value))
	}
}

func TestSimulateRecordsReadVersions(t *testing.T) {
	reg, state := newEnv(t)
	state.ApplyWrites([]statedb.Write{{Namespace: "cc", Key: "k", Value: []byte("v")}},
		statedb.Version{BlockNum: 7, TxNum: 2})
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		if _, err := stub.GetState("k"); err != nil {
			return nil, err
		}
		if _, err := stub.GetState("absent"); err != nil {
			return nil, err
		}
		return nil, nil
	}))
	res, err := Simulate(reg, state, inv("cc", "read"))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(res.RWSet.Reads) != 2 {
		t.Fatalf("reads = %+v", res.RWSet.Reads)
	}
	// Reads are sorted by key: "absent" < "k".
	if res.RWSet.Reads[0].Key != "absent" || res.RWSet.Reads[0].Exists {
		t.Fatalf("read[0] = %+v", res.RWSet.Reads[0])
	}
	got := res.RWSet.Reads[1]
	if got.Key != "k" || got.Namespace != "cc" || !got.Exists || got.Version.BlockNum != 7 || got.Version.TxNum != 2 {
		t.Fatalf("read[1] = %+v", got)
	}
}

func TestSimulateDelete(t *testing.T) {
	reg, state := newEnv(t)
	state.ApplyWrites([]statedb.Write{{Namespace: "cc", Key: "k", Value: []byte("v")}}, statedb.Version{})
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		if err := stub.DelState("k"); err != nil {
			return nil, err
		}
		v, err := stub.GetState("k")
		if err != nil {
			return nil, err
		}
		if v != nil {
			return nil, errors.New("deleted key still visible")
		}
		return nil, nil
	}))
	res, err := Simulate(reg, state, inv("cc", "del"))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(res.RWSet.Writes) != 1 || !res.RWSet.Writes[0].IsDelete {
		t.Fatalf("writes = %+v", res.RWSet.Writes)
	}
}

func TestReadOnlyInvocationRejectsWrites(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		return nil, stub.PutState("k", []byte("v"))
	}))
	q := inv("cc", "write")
	q.ReadOnly = true
	if _, err := Simulate(reg, state, q); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only write: %v", err)
	}
}

func TestGetStateRangeExcludesPendingWrites(t *testing.T) {
	reg, state := newEnv(t)
	state.ApplyWrites([]statedb.Write{
		{Namespace: "cc", Key: "k1", Value: []byte("a")},
		{Namespace: "cc", Key: "k2", Value: []byte("b")},
	}, statedb.Version{})
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		if err := stub.PutState("k3", []byte("c")); err != nil {
			return nil, err
		}
		kvs, err := stub.GetStateRange("k1", "k9")
		if err != nil {
			return nil, err
		}
		if len(kvs) != 2 {
			return nil, fmt.Errorf("range saw %d keys", len(kvs))
		}
		return nil, nil
	}))
	if _, err := Simulate(reg, state, inv("cc", "range")); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
}

func TestCrossChaincodeInvokeSharesContext(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("callee", Func(func(stub Stub) ([]byte, error) {
		if err := stub.PutState("callee-key", []byte("x")); err != nil {
			return nil, err
		}
		return []byte("callee-resp"), nil
	}))
	reg.Register("caller", Func(func(stub Stub) ([]byte, error) {
		resp, err := stub.InvokeChaincode("callee", "doit", nil)
		if err != nil {
			return nil, err
		}
		if err := stub.PutState("caller-key", []byte("y")); err != nil {
			return nil, err
		}
		return resp, nil
	}))
	res, err := Simulate(reg, state, inv("caller", "go"))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !bytes.Equal(res.Response, []byte("callee-resp")) {
		t.Fatalf("response = %q", res.Response)
	}
	if len(res.RWSet.Writes) != 2 {
		t.Fatalf("writes = %+v", res.RWSet.Writes)
	}
	// Write order must reflect execution order: callee wrote first. Each
	// write is attributed to the chaincode that issued it.
	if res.RWSet.Writes[0].Key != "callee-key" || res.RWSet.Writes[1].Key != "caller-key" {
		t.Fatalf("write order = %+v", res.RWSet.Writes)
	}
	if res.RWSet.Writes[0].Namespace != "callee" || res.RWSet.Writes[1].Namespace != "caller" {
		t.Fatalf("write namespaces = %+v", res.RWSet.Writes)
	}
}

// TestNestedInvokeRestoresStub: a cross-chaincode call runs on the
// caller's stub, and whether the callee returns, fails or panics, the
// caller finds its own function, arguments and namespace back: its reads
// and writes after the call are its own. A write the callee makes lands in
// the callee's namespace, and so does an event it sets.
func TestNestedInvokeRestoresStub(t *testing.T) {
	reg, state := newEnv(t)
	state.ApplyWrites([]statedb.Write{
		{Namespace: "caller", Key: "k", Value: []byte("caller's")},
		{Namespace: "callee", Key: "k", Value: []byte("callee's")},
	}, statedb.Version{BlockNum: 1})
	reg.Register("callee", Func(func(stub Stub) ([]byte, error) {
		if fn, args := stub.Function(), stub.Args(); len(args) != 1 || string(args[0]) != "callee-arg" {
			return nil, fmt.Errorf("callee sees %s%q", fn, args)
		}
		if err := stub.PutState("written", []byte(stub.Function())); err != nil {
			return nil, err
		}
		switch stub.Function() {
		case "fail":
			return nil, errors.New("callee failed")
		case "panic":
			panic("callee panicked")
		}
		if err := stub.SetEvent("ev", nil); err != nil {
			return nil, err
		}
		return stub.GetState("k")
	}))
	for _, fn := range []string{"return", "fail", "panic"} {
		reg.Register("caller", Func(func(stub Stub) ([]byte, error) {
			var resp []byte
			func() {
				defer func() { _ = recover() }()
				resp, _ = stub.InvokeChaincode("callee", fn, [][]byte{[]byte("callee-arg")})
			}()
			if fn == "return" && string(resp) != "callee's" {
				return nil, fmt.Errorf("the callee read %q from its namespace", resp)
			}
			if got, args := stub.Function(), stub.Args(); got != "go" || len(args) != 1 || string(args[0]) != "caller-arg" {
				return nil, fmt.Errorf("after the callee's %s the caller sees %s%q", fn, got, args)
			}
			if v, err := stub.GetState("k"); err != nil || string(v) != "caller's" {
				return nil, fmt.Errorf("after the callee's %s the caller reads %q, %v", fn, v, err)
			}
			return nil, stub.PutState("mine", []byte("y"))
		}))
		res, err := Simulate(reg, state, inv("caller", "go", "caller-arg"))
		if err != nil {
			t.Fatalf("callee's %s: %v", fn, err)
		}
		want := []ledger.KVWrite{
			{Namespace: "callee", Key: "written", Value: []byte(fn)},
			{Namespace: "caller", Key: "mine", Value: []byte("y")},
		}
		if !reflect.DeepEqual(res.RWSet.Writes, want) {
			t.Fatalf("callee's %s: writes = %+v, want %+v", fn, res.RWSet.Writes, want)
		}
		if fn == "return" && (res.Event == nil || res.Event.Chaincode != "callee") {
			t.Fatalf("the callee's event = %+v, want one of chaincode callee", res.Event)
		}
	}
}

func TestCrossChaincodeInvokeUnknown(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("caller", Func(func(stub Stub) ([]byte, error) {
		return stub.InvokeChaincode("ghost", "fn", nil)
	}))
	if _, err := Simulate(reg, state, inv("caller", "go")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown callee: %v", err)
	}
}

func TestSetEventLastWins(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		if err := stub.SetEvent("first", []byte("1")); err != nil {
			return nil, err
		}
		if err := stub.SetEvent("second", []byte("2")); err != nil {
			return nil, err
		}
		return nil, nil
	}))
	res, err := Simulate(reg, state, inv("cc", "emit"))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Event == nil || res.Event.Name != "second" {
		t.Fatalf("event = %+v", res.Event)
	}
	if res.Event.Chaincode != "cc" {
		t.Fatalf("event chaincode = %q", res.Event.Chaincode)
	}
}

func TestSetEventEmptyName(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		return nil, stub.SetEvent("", nil)
	}))
	if _, err := Simulate(reg, state, inv("cc", "emit")); err == nil {
		t.Fatal("empty event name accepted")
	}
}

func TestStubAccessors(t *testing.T) {
	reg, state := newEnv(t)
	var gotTx, gotFn string
	var gotArgs []string
	var gotCreator []byte
	var gotTime time.Time
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		gotTx = stub.TxID()
		gotFn = stub.Function()
		gotArgs = stub.StringArgs()
		gotCreator = stub.CreatorCert()
		gotTime = stub.Timestamp()
		return nil, nil
	}))
	proposal := inv("cc", "fn", "a1", "a2")
	proposal.CreatorCert = []byte("CERT")
	if _, err := Simulate(reg, state, proposal); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if gotTx != "tx-test" || gotFn != "fn" {
		t.Fatalf("tx=%q fn=%q", gotTx, gotFn)
	}
	if len(gotArgs) != 2 || gotArgs[0] != "a1" {
		t.Fatalf("args = %v", gotArgs)
	}
	if !bytes.Equal(gotCreator, []byte("CERT")) {
		t.Fatalf("creator = %q", gotCreator)
	}
	if !gotTime.Equal(time.Unix(1700000000, 0)) {
		t.Fatalf("timestamp = %v", gotTime)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		if _, err := stub.GetState(""); err == nil {
			return nil, errors.New("GetState empty key accepted")
		}
		if err := stub.PutState("", nil); err == nil {
			return nil, errors.New("PutState empty key accepted")
		}
		if err := stub.DelState(""); err == nil {
			return nil, errors.New("DelState empty key accepted")
		}
		return nil, nil
	}))
	if _, err := Simulate(reg, state, inv("cc", "fn")); err != nil {
		t.Fatal(err)
	}
}

func TestChaincodeErrorPropagates(t *testing.T) {
	reg, state := newEnv(t)
	boom := errors.New("boom")
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) { return nil, boom }))
	if _, err := Simulate(reg, state, inv("cc", "fn")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkSimulateReadWrite(b *testing.B) {
	reg := NewRegistry()
	state := statedb.NewStore()
	state.ApplyWrites([]statedb.Write{{Namespace: "cc", Key: "in", Value: make([]byte, 256)}}, statedb.Version{})
	reg.Register("cc", Func(func(stub Stub) ([]byte, error) {
		v, err := stub.GetState("in")
		if err != nil {
			return nil, err
		}
		if err := stub.PutState("out", v); err != nil {
			return nil, err
		}
		return v, nil
	}))
	proposal := inv("cc", "fn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(reg, state, proposal); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimulateWriteAllocations: a transaction's write set is one
// allocation, made by its first write and handed to the read-write set as
// it stands, however often each key is rewritten or deleted. The values
// written are empty, so PutState's copy of them costs nothing, and each
// row is Simulate's count less that of a transaction that writes nothing.
// A change may lower a row, never raise it.
func TestSimulateWriteAllocations(t *testing.T) {
	reg, state := newEnv(t)
	reg.Register("none", Func(func(stub Stub) ([]byte, error) { return nil, nil }))
	reg.Register("once", Func(func(stub Stub) ([]byte, error) {
		_ = stub.PutState("a", nil)
		return nil, stub.DelState("b")
	}))
	reg.Register("rewrites", Func(func(stub Stub) ([]byte, error) {
		for range 16 {
			_ = stub.PutState("a", nil)
			_ = stub.DelState("b")
			_ = stub.DelState("a")
			_ = stub.PutState("b", nil)
		}
		return nil, nil
	}))
	simulate := func(cc string) func() {
		proposal := inv(cc, "fn")
		return func() {
			if _, err := Simulate(reg, state, proposal); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(200, simulate("none"))
	for _, row := range []struct {
		cc  string
		max float64
	}{
		{"once", 1},
		{"rewrites", 1},
	} {
		if got := testing.AllocsPerRun(200, simulate(row.cc)) - base; got > row.max {
			t.Errorf("%s: the write set of 2 keys costs %v allocations, want <= %v", row.cc, got, row.max)
		} else {
			t.Logf("%s: the write set of 2 keys costs %v allocations", row.cc, got)
		}
	}
}
