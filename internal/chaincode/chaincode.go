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

// KV is a key with its committed value and version, as range queries
// return it: the state database's own scan result, handed out as it is.
type KV = statedb.KV

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
	// PutState buffers a copy of value as a write, so the chaincode may
	// reuse its buffer once the call returns.
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
	// network's identity to interop-aware chaincode (see Interop). The
	// value is read-only, like Args.
	GetTransient(key string) []byte
}

// Transient keys of a request a relay serves (see Interop).
const (
	// TransientInteropFlag marks an invocation as a relayed cross-network
	// request; its value is "1".
	TransientInteropFlag = "interop"
	// TransientRequestingNetwork carries the requesting network's ID.
	TransientRequestingNetwork = "interop-network"
	// TransientNonce carries the client's replay nonce.
	TransientNonce = "interop-nonce"
)

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
	Relayed     bool              // a cross-network request a relay serves; see Interop
	Transient   map[string][]byte // proposal-scoped, never written to the ledger; not the interop keys

	// Interop is a relayed request's transient data, read only when
	// Relayed is set.
	Interop Interop

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

// Interop is the transient data a relay attaches to a cross-network
// request, carried in the invocation rather than in a Transient map, so
// serving a request builds none. Under Relayed, GetTransient answers
// TransientInteropFlag with "1", TransientRequestingNetwork with
// RequestingNetwork and TransientNonce with Nonce; without it, those keys
// are absent, and the Transient map never answers them. An invocation
// under Relayed that names no TxID has "interop-" followed by RequestID,
// built only when a chaincode asks for it.
type Interop struct {
	RequestingNetwork string
	RequestID         string
	Nonce             []byte
}

// SimResult is the outcome of simulating an invocation.
type SimResult struct {
	Response []byte
	RWSet    ledger.RWSet
	Event    *ledger.ChaincodeEvent
}

// Simulate runs an invocation against the registry and a committed state,
// producing the response and the read-write set. The state itself is never
// mutated. A read-only invocation's read set stays in the frame's room
// while it holds at most readRoom reads, so its result keeps the frame, and
// the invocation in it, alive as long as the caller keeps the result. A
// transaction's read set outlives the call on the ledger, so it is copied
// out of the room: a committed transaction keeps no frame alive.
func Simulate(reg *Registry, state *statedb.Store, inv Invocation) (SimResult, error) {
	cc, err := reg.Get(inv.Chaincode)
	if err != nil {
		return SimResult{}, err
	}
	f := &recordingStub{simStub: simStub{reg: reg, state: state, inv: inv, record: true}}
	f.reads = f.room[:0]
	resp, err := cc.Invoke(&f.simStub)
	if err != nil {
		return SimResult{}, err
	}
	rw := f.rwset()
	if !inv.ReadOnly && cap(rw.Reads) == readRoom { // still in the room
		rw.Reads = slices.Clone(rw.Reads)
	}
	return SimResult{Response: resp, RWSet: rw, Event: f.event}, nil
}

// Evaluate runs a read-only invocation against the registry and a committed
// state and returns only its response. It is Simulate with read recording
// off: the stub keeps no read set and no write buffer (a write fails with
// ErrReadOnly either way), so a caller that discards the read set never
// pays for building it. Response and error are the ones Simulate would
// return for the same invocation with ReadOnly set.
func Evaluate(reg *Registry, state *statedb.Store, inv Invocation) ([]byte, error) {
	return (&simStub{reg: reg, state: state, inv: inv}).evaluate()
}

// EvaluateStrings is Evaluate with args in place of inv.Args, passed to the
// chaincode as read-only views of the strings (ReadOnlyBytes), not copies.
// The views are held in the stub's own allocation while they fit its room.
func EvaluateStrings(reg *Registry, state *statedb.Store, inv Invocation, args ...string) ([]byte, error) {
	f := &stringStub{simStub: simStub{reg: reg, state: state, inv: inv}}
	f.inv.Args = f.room[:0]
	for _, a := range args {
		f.inv.Args = append(f.inv.Args, ReadOnlyBytes(a))
	}
	return f.evaluate()
}

// evaluate runs the stub's invocation read-only and returns its response:
// the body of Evaluate and EvaluateStrings.
func (s *simStub) evaluate() ([]byte, error) {
	cc, err := s.reg.Get(s.inv.Chaincode)
	if err != nil {
		return nil, err
	}
	s.inv.ReadOnly = true
	return cc.Invoke(s)
}

// argRoom is how many string arguments an EvaluateStrings frame holds: a
// client's verification-policy lookup passes two.
const argRoom = 2

// stringStub is an EvaluateStrings frame: the stub and room for the views
// of its arguments, allocated together.
type stringStub struct {
	simStub
	room [argRoom][]byte
}

// readRoom is how many reads a Simulate frame holds before its read set
// moves to a slice of its own: a relayed read through the exposure
// control chaincode makes three.
const readRoom = 4

// recordingStub is a Simulate frame: the stub and room for its first
// reads, allocated together.
type recordingStub struct {
	simStub
	room [readRoom]ledger.KVRead
}

// slot names a key inside a chaincode namespace.
type slot struct{ ns, key string }

const (
	// writeRoom is the capacity of a write set at its first write: the
	// transactions of the workloads write one or two keys.
	writeRoom = 4
	// writeScan is how many buffered writes a stub finds by scanning. Past
	// it the stub indexes them in a map, so a large write set stays linear.
	writeScan = 8
)

// simStub is an invocation's one stub, shared by the whole call tree:
// cross-chaincode calls reuse it, so the tree yields one read-write set
// (Fabric's same-channel chaincode-to-chaincode semantics). inv's
// Chaincode, Function and Args name the chaincode running now, whose
// namespace it reads and writes: InvokeChaincode swaps in the callee's and
// restores the caller's on return. Reads are appended as they happen,
// repeats included; rwset keeps the first of each key. Under Evaluate
// record is off: nothing is recorded, and a read-only invocation has no
// writes to read back. Under Simulate the first write makes the write set,
// one slice that holds each (namespace, key)'s latest write in the order of
// those writes and that rwset hands over as RWSet.Writes: a rewrite moves
// its key to the end. Past writeScan writes, index maps each key to its
// latest write, and a rewrite leaves its earlier write in place for rwset
// to drop.
type simStub struct {
	reg    *Registry
	state  *statedb.Store
	inv    Invocation
	writes []ledger.KVWrite
	index  map[slot]int // nil until writes holds more than writeScan
	reads  []ledger.KVRead
	event  *ledger.ChaincodeEvent
	record bool // under Simulate: record the read-write set
}

var _ Stub = (*simStub)(nil)

// read records the version of a committed key as observed now.
func (s *simStub) read(ns, key string, v statedb.Version, exists bool) {
	s.reads = append(s.reads, ledger.KVRead{Namespace: ns, Key: key, Version: v, Exists: exists})
}

// rwset returns the recorded reads sorted by (namespace, key), each key
// once at the version first observed, and the write set itself, each key's
// latest write in the order those writes were made. Namespaces hold no
// U+0000, so the read order is the order of the joined strings
// namespace+"\x00"+key. The sort is stable, so of a key's reads the first
// recorded leads its run and is the one kept; the read set is compacted in
// place.
func (s *simStub) rwset() ledger.RWSet {
	rw := ledger.RWSet{}
	if len(s.reads) > 0 {
		slices.SortStableFunc(s.reads, compareRead)
		s.reads = slices.CompactFunc(s.reads, func(a, b ledger.KVRead) bool { return compareRead(a, b) == 0 })
		rw.Reads = s.reads
	}
	if s.index != nil && len(s.index) < len(s.writes) {
		// Drop the writes a later write of the same key superseded.
		live := s.writes[:0]
		for i, w := range s.writes {
			if s.index[slot{w.Namespace, w.Key}] == i {
				live = append(live, w)
			}
		}
		clear(s.writes[len(live):])
		s.writes, s.index = live, nil
	}
	rw.Writes = s.writes
	return rw
}

// compareRead orders reads by (namespace, key).
func compareRead(a, b ledger.KVRead) int {
	return cmp.Or(strings.Compare(a.Namespace, b.Namespace), strings.Compare(a.Key, b.Key))
}

func (s *simStub) TxID() string {
	if s.inv.TxID == "" && s.inv.Relayed {
		return "interop-" + s.inv.Interop.RequestID
	}
	return s.inv.TxID
}

func (s *simStub) Function() string    { return s.inv.Function }
func (s *simStub) Args() [][]byte      { return s.inv.Args }
func (s *simStub) CreatorCert() []byte { return s.inv.CreatorCert }
func (s *simStub) Timestamp() time.Time {
	return s.inv.Timestamp
}

func (s *simStub) StringArgs() []string {
	out := make([]string, len(s.inv.Args))
	for i, a := range s.inv.Args {
		out[i] = string(a)
	}
	return out
}

func (s *simStub) GetState(key string) ([]byte, error) {
	if key == "" {
		return nil, statedb.ErrInvalidKey
	}
	ns := s.inv.Chaincode
	if !s.record {
		vv, exists := s.state.Get(ns, key)
		if !exists {
			return nil, nil
		}
		return vv.Value, nil
	}
	// Read-your-writes within the invocation: the buffered value itself,
	// read-only like a committed one. PutState copied it to its length.
	if i := s.find(ns, key); i >= 0 {
		return s.writes[i].Value, nil // nil for a delete
	}
	vv, exists := s.state.Get(ns, key)
	// Recorded for MVCC validation; rwset keeps the first observed version.
	s.read(ns, key, vv.Version, exists)
	if !exists {
		return nil, nil
	}
	return vv.Value, nil
}

func (s *simStub) PutState(key string, value []byte) error {
	if key == "" {
		return statedb.ErrInvalidKey
	}
	if s.inv.ReadOnly {
		return ErrReadOnly
	}
	// The one copy between a chaincode's buffer and committed state: every
	// peer stores the block's write value itself (statedb.ApplyWrites), so
	// the caller may reuse value at once.
	val := make([]byte, len(value))
	copy(val, value)
	s.write(ledger.KVWrite{Namespace: s.inv.Chaincode, Key: key, Value: val})
	return nil
}

func (s *simStub) DelState(key string) error {
	if key == "" {
		return statedb.ErrInvalidKey
	}
	if s.inv.ReadOnly {
		return ErrReadOnly
	}
	s.write(ledger.KVWrite{Namespace: s.inv.Chaincode, Key: key, IsDelete: true})
	return nil
}

// find returns the position of the latest write of (ns, key) in the write
// set, or -1 when the key has none.
func (s *simStub) find(ns, key string) int {
	if s.index != nil {
		if i, ok := s.index[slot{ns, key}]; ok {
			return i
		}
		return -1
	}
	for i := range s.writes {
		if w := &s.writes[i]; w.Key == key && w.Namespace == ns {
			return i
		}
	}
	return -1
}

// write buffers w as the latest write of its key, at the end of the write
// set.
func (s *simStub) write(w ledger.KVWrite) {
	switch i := s.find(w.Namespace, w.Key); {
	case s.index != nil:
		s.index[slot{w.Namespace, w.Key}] = len(s.writes)
	case i >= 0:
		s.writes = append(s.writes[:i], s.writes[i+1:]...)
	case s.writes == nil:
		s.writes = make([]ledger.KVWrite, 0, writeRoom)
	}
	s.writes = append(s.writes, w)
	if s.index == nil && len(s.writes) > writeScan {
		s.index = make(map[slot]int, 2*len(s.writes))
		for i := range s.writes {
			s.index[slot{s.writes[i].Namespace, s.writes[i].Key}] = i
		}
	}
}

// GetStateRange returns the state database's scan result itself.
func (s *simStub) GetStateRange(start, end string) ([]KV, error) {
	kvs := s.state.Range(s.inv.Chaincode, start, end)
	if s.record {
		// Range reads are recorded for MVCC like point reads.
		for _, kv := range kvs {
			s.read(s.inv.Chaincode, kv.Key, kv.Version, true)
		}
	}
	return kvs, nil
}

// InvokeChaincode runs the callee on this same stub: it swaps in the
// callee's chaincode, function and args, and restores the caller's when the
// call returns, fails or panics.
func (s *simStub) InvokeChaincode(name, function string, args [][]byte) ([]byte, error) {
	cc, err := s.reg.Get(name)
	if err != nil {
		return nil, err
	}
	caller, callerFn, callerArgs := s.inv.Chaincode, s.inv.Function, s.inv.Args
	defer func() { s.inv.Chaincode, s.inv.Function, s.inv.Args = caller, callerFn, callerArgs }()
	s.inv.Chaincode, s.inv.Function, s.inv.Args = name, function, args
	rec := s.inv.Trace
	if rec == nil {
		return cc.Invoke(s)
	}
	start := rec.Start()
	resp, err := cc.Invoke(s)
	rec.End(trace.Chaincode+name, start)
	return resp, err
}

// GetTransient answers the interop keys from Interop alone, and only under
// Relayed; every other key from the Transient map.
func (s *simStub) GetTransient(key string) []byte {
	var v []byte
	switch key {
	case TransientInteropFlag:
		v = ReadOnlyBytes("1")
	case TransientRequestingNetwork:
		v = ReadOnlyBytes(s.inv.Interop.RequestingNetwork)
	case TransientNonce:
		v = s.inv.Interop.Nonce
	default:
		return s.inv.Transient[key]
	}
	if !s.inv.Relayed {
		return nil
	}
	return v
}

func (s *simStub) SetEvent(name string, payload []byte) error {
	if name == "" {
		return errors.New("chaincode: empty event name")
	}
	p := make([]byte, len(payload))
	copy(p, payload)
	s.event = &ledger.ChaincodeEvent{Chaincode: s.inv.Chaincode, Name: name, Payload: p}
	return nil
}
