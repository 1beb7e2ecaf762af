// Package chaincode defines the smart-contract programming model of the
// simulated platform: a Chaincode receives a Stub giving it access to the
// world state, its invocation arguments, the submitting client's identity
// and cross-chaincode invocation. The stub used during endorsement records
// a read-write set instead of mutating state directly, exactly as in
// Fabric's execute-order-validate model.
package chaincode

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/ledger"
	"repro/internal/statedb"
	"repro/internal/trace"
)

var (
	// ErrNotFound is returned by registry lookups for unknown chaincodes.
	ErrNotFound = errors.New("chaincode: not found")
	// ErrReadOnly is returned when a query-only invocation attempts a
	// write.
	ErrReadOnly = errors.New("chaincode: write attempted in read-only invocation")
)

// Chaincode is a deployable smart contract.
type Chaincode interface {
	// Invoke executes one transaction proposal or query against the stub
	// and returns the response payload.
	Invoke(stub Stub) ([]byte, error)
}

// ReadOnlyBytes returns s as a byte slice without copying it: the bytes
// are s's own, so nothing may write them. That is the contract of an
// invocation's arguments (Stub.Args) and of a chaincode response, which is
// what lets a caller pass a string as either.
func ReadOnlyBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Func adapts a function to the Chaincode interface.
type Func func(stub Stub) ([]byte, error)

// Invoke implements Chaincode.
func (f Func) Invoke(stub Stub) ([]byte, error) { return f(stub) }

// KV is a key/value pair returned by range queries.
type KV struct {
	Key   string
	Value []byte
}

// Stub is the interface a chaincode uses to interact with its invocation
// context and the ledger.
type Stub interface {
	// TxID returns the transaction (or query) identifier.
	TxID() string
	// Function returns the invoked function name.
	Function() string
	// Args returns the invocation arguments (excluding the function name).
	// The slices alias the proposal, so a chaincode must not modify them.
	Args() [][]byte
	// StringArgs returns Args as strings, copied.
	StringArgs() []string
	// CreatorCert returns the PEM certificate of the submitting client.
	CreatorCert() []byte
	// Timestamp returns the proposal timestamp (identical on all peers for
	// a given proposal, keeping simulation deterministic).
	Timestamp() time.Time

	// GetState reads a key, observing any write buffered earlier in the
	// same invocation. The value is read-only, like Args: it is the
	// committed (or buffered) value itself, so a chaincode must not modify
	// it. Its capacity is its length, so appending to it reallocates.
	GetState(key string) ([]byte, error)
	// PutState buffers a write.
	PutState(key string, value []byte) error
	// DelState buffers a delete.
	DelState(key string) error
	// GetStateRange returns committed keys in [start, end) in lexical
	// order. Pending writes of the current invocation are not visible, as
	// in Fabric. The values are read-only, as GetState's are.
	GetStateRange(start, end string) ([]KV, error)

	// InvokeChaincode synchronously calls another chaincode deployed on
	// the same peer, sharing this invocation's read-write context.
	InvokeChaincode(name, function string, args [][]byte) ([]byte, error)

	// SetEvent attaches a chaincode event to the transaction; the last
	// call wins. Events are delivered only if the transaction commits.
	SetEvent(name string, payload []byte) error

	// GetTransient returns proposal-scoped data that is not recorded on
	// the ledger, mirroring Fabric's transient field. The relay driver
	// uses it to mark cross-network queries and carry the requesting
	// network's identity to interop-aware chaincode.
	GetTransient(key string) []byte
}

// Registry holds the chaincodes deployed on a peer.
type Registry struct {
	mu  sync.RWMutex
	ccs map[string]Chaincode
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ccs: make(map[string]Chaincode)}
}

// Register deploys a chaincode under the given name, replacing any previous
// deployment (chaincode upgrade).
func (r *Registry) Register(name string, cc Chaincode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ccs[name] = cc
}

// Get returns a deployed chaincode.
func (r *Registry) Get(name string) (Chaincode, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cc, ok := r.ccs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return cc, nil
}

// Names returns the sorted names of all deployed chaincodes.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.ccs))
	for n := range r.ccs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Invocation describes one proposal to simulate.
type Invocation struct {
	TxID        string
	Chaincode   string
	Function    string
	Args        [][]byte
	CreatorCert []byte
	Timestamp   time.Time
	ReadOnly    bool              // queries may not write
	Transient   map[string][]byte // proposal-scoped, never written to the ledger

	// InteropKey is the exactly-once identity of the cross-network request
	// behind this proposal (wire.Query.InteropKey), empty for local
	// transactions. It travels into the committed transaction's signed
	// metadata so the ledger itself can reject a second commit of the same
	// logical invoke submitted through a different relay.
	InteropKey string

	// Trace times each cross-chaincode call of a traced request (stage
	// trace.Chaincode followed by the callee's name); nil when untraced.
	Trace *trace.Recorder
}

// SimResult is the outcome of simulating an invocation.
type SimResult struct {
	Response []byte
	RWSet    ledger.RWSet
	Event    *ledger.ChaincodeEvent
}

// Simulate runs an invocation against the registry and a committed state,
// producing the response and the read-write set. The state itself is never
// mutated.
func Simulate(reg *Registry, state *statedb.Store, inv Invocation) (*SimResult, error) {
	cc, err := reg.Get(inv.Chaincode)
	if err != nil {
		return nil, err
	}
	f := newFrame(reg, state, inv)
	f.ctx.record = true
	resp, err := cc.Invoke(&f.stub)
	if err != nil {
		return nil, err
	}
	return &SimResult{Response: resp, RWSet: f.ctx.rwset(), Event: f.ctx.event}, nil
}

// Evaluate runs a read-only invocation against the registry and a committed
// state and returns only its response. It is Simulate with read recording
// off: the stub keeps no read set and no write buffer (a write fails with
// ErrReadOnly either way), so a caller that discards the read set never
// pays for building it. Response and error are the ones Simulate would
// return for the same invocation with ReadOnly set.
func Evaluate(reg *Registry, state *statedb.Store, inv Invocation) ([]byte, error) {
	cc, err := reg.Get(inv.Chaincode)
	if err != nil {
		return nil, err
	}
	inv.ReadOnly = true
	return cc.Invoke(&newFrame(reg, state, inv).stub)
}

// frame is an invocation's context and its top-level stub, allocated
// together.
type frame struct {
	ctx  simContext
	stub simStub
}

func newFrame(reg *Registry, state *statedb.Store, inv Invocation) *frame {
	f := &frame{ctx: simContext{reg: reg, state: state, inv: inv}}
	f.stub = simStub{ctx: &f.ctx, chaincode: inv.Chaincode, function: inv.Function, args: inv.Args}
	return f
}

type pendingWrite struct {
	seq      int
	ns       string
	key      string
	value    []byte
	isDelete bool
}

// slot names a key inside a chaincode namespace.
type slot struct{ ns, key string }

// simContext is shared across a proposal's stub and any stubs created by
// cross-chaincode invocation, so the whole call tree yields one read-write
// set (Fabric's same-channel chaincode-to-chaincode semantics). Each stub
// in the tree reads and writes its own chaincode's namespace, so writes are
// keyed by namespace and key. Reads are appended as they happen, repeats
// included; rwset keeps the first of each key. Under Evaluate record is
// off: nothing is recorded, and a read-only invocation has no writes to
// read back. Under Simulate the write map is made by the first write.
type simContext struct {
	reg      *Registry
	state    *statedb.Store
	inv      Invocation
	writes   map[slot]pendingWrite
	reads    []ledger.KVRead
	event    *ledger.ChaincodeEvent
	writeSeq int32 // beside record, so the two share a word of the frame
	record   bool  // under Simulate: record the read-write set
}

// read records the version of a committed key as observed now.
func (c *simContext) read(ns, key string, v statedb.Version, exists bool) {
	c.reads = append(c.reads, ledger.KVRead{Namespace: ns, Key: key, Version: v, Exists: exists})
}

// rwset returns the recorded reads sorted by (namespace, key), each key
// once at the version first observed, and the writes in the order they
// were made. Namespaces hold no U+0000, so the read order is the order of
// the joined strings namespace+"\x00"+key. The sort is stable, so of a
// key's reads the first recorded leads its run and is the one kept; the
// read set is compacted in place.
func (c *simContext) rwset() ledger.RWSet {
	rw := ledger.RWSet{}
	if len(c.reads) > 0 {
		slices.SortStableFunc(c.reads, compareRead)
		c.reads = slices.CompactFunc(c.reads, func(a, b ledger.KVRead) bool { return compareRead(a, b) == 0 })
		rw.Reads = c.reads
	}
	if len(c.writes) > 0 {
		ordered := make([]pendingWrite, 0, len(c.writes))
		for _, w := range c.writes {
			ordered = append(ordered, w)
		}
		slices.SortFunc(ordered, func(a, b pendingWrite) int { return cmp.Compare(a.seq, b.seq) })
		rw.Writes = make([]ledger.KVWrite, len(ordered))
		for i, w := range ordered {
			rw.Writes[i] = ledger.KVWrite{Namespace: w.ns, Key: w.key, Value: w.value, IsDelete: w.isDelete}
		}
	}
	return rw
}

// compareRead orders reads by (namespace, key).
func compareRead(a, b ledger.KVRead) int {
	return cmp.Or(strings.Compare(a.Namespace, b.Namespace), strings.Compare(a.Key, b.Key))
}

type simStub struct {
	ctx       *simContext
	chaincode string
	function  string
	args      [][]byte
}

var _ Stub = (*simStub)(nil)

func (s *simStub) TxID() string        { return s.ctx.inv.TxID }
func (s *simStub) Function() string    { return s.function }
func (s *simStub) Args() [][]byte      { return s.args }
func (s *simStub) CreatorCert() []byte { return s.ctx.inv.CreatorCert }
func (s *simStub) Timestamp() time.Time {
	return s.ctx.inv.Timestamp
}

func (s *simStub) StringArgs() []string {
	out := make([]string, len(s.args))
	for i, a := range s.args {
		out[i] = string(a)
	}
	return out
}

func (s *simStub) GetState(key string) ([]byte, error) {
	if key == "" {
		return nil, statedb.ErrInvalidKey
	}
	if !s.ctx.record {
		vv, exists := s.ctx.state.Get(s.chaincode, key)
		if !exists {
			return nil, nil
		}
		return vv.Value, nil
	}
	// Read-your-writes within the invocation: the buffered value itself,
	// read-only like a committed one. PutState copied it to its length.
	if w, ok := s.ctx.writes[slot{s.chaincode, key}]; ok {
		if w.isDelete {
			return nil, nil
		}
		return w.value, nil
	}
	vv, exists := s.ctx.state.Get(s.chaincode, key)
	// Recorded for MVCC validation; rwset keeps the first observed version.
	s.ctx.read(s.chaincode, key, vv.Version, exists)
	if !exists {
		return nil, nil
	}
	return vv.Value, nil
}

func (s *simStub) PutState(key string, value []byte) error {
	if key == "" {
		return statedb.ErrInvalidKey
	}
	if s.ctx.inv.ReadOnly {
		return ErrReadOnly
	}
	val := make([]byte, len(value))
	copy(val, value)
	s.ctx.write(pendingWrite{ns: s.chaincode, key: key, value: val})
	return nil
}

func (s *simStub) DelState(key string) error {
	if key == "" {
		return statedb.ErrInvalidKey
	}
	if s.ctx.inv.ReadOnly {
		return ErrReadOnly
	}
	s.ctx.write(pendingWrite{ns: s.chaincode, key: key, isDelete: true})
	return nil
}

// write buffers w as the latest write of its key.
func (c *simContext) write(w pendingWrite) {
	if c.writes == nil {
		c.writes = make(map[slot]pendingWrite)
	}
	c.writeSeq++
	w.seq = int(c.writeSeq)
	c.writes[slot{w.ns, w.key}] = w
}

func (s *simStub) GetStateRange(start, end string) ([]KV, error) {
	kvs := s.ctx.state.Range(s.chaincode, start, end)
	out := make([]KV, 0, len(kvs))
	for _, kv := range kvs {
		// Range reads are recorded for MVCC like point reads.
		if s.ctx.record {
			s.ctx.read(s.chaincode, kv.Key, kv.Version, true)
		}
		out = append(out, KV{Key: kv.Key, Value: kv.Value})
	}
	return out, nil
}

func (s *simStub) InvokeChaincode(name, function string, args [][]byte) ([]byte, error) {
	cc, err := s.ctx.reg.Get(name)
	if err != nil {
		return nil, err
	}
	sub := &simStub{ctx: s.ctx, chaincode: name, function: function, args: args}
	rec := s.ctx.inv.Trace
	if rec == nil {
		return cc.Invoke(sub)
	}
	start := rec.Start()
	resp, err := cc.Invoke(sub)
	rec.End(trace.Chaincode+name, start)
	return resp, err
}

func (s *simStub) GetTransient(key string) []byte {
	return s.ctx.inv.Transient[key]
}

func (s *simStub) SetEvent(name string, payload []byte) error {
	if name == "" {
		return errors.New("chaincode: empty event name")
	}
	p := make([]byte, len(payload))
	copy(p, payload)
	s.ctx.event = &ledger.ChaincodeEvent{Chaincode: s.chaincode, Name: name, Payload: p}
	return nil
}
