package relay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// JournalRegistry is the durable Discovery — the paper's "local file-based
// registry plugged into the SWT Relay" (§4.3) — backed by an append-only
// lease journal. Each RegisterLease / Deregister is one O(1) record
// appended to the log under a cross-process lock held only for the append
// itself, never across a load-modify-store cycle. N relayd
// processes heartbeating through one registry therefore contend on a
// single short write apiece, which is what lets discovery keep up with the
// redundant-relay fleet it fronts (the same write-ahead idea Fabric uses
// for its block journal). Registration deduplicates by (network, address),
// so a relay daemon restarting against the same deployment directory
// refreshes its entry instead of appending a duplicate.
//
// Layout on disk, for a registry rooted at <path> (e.g. registry.jsonl):
//
//	<path>          generation-0 journal (records appended since genesis)
//	<path>.<g>      generation-g journal, g >= 1 (post-compaction)
//	<path>.gen      pointer file naming the current generation (atomic
//	                temp+rename), absent until the first compaction
//	<path>.lock     sidecar flock serializing appends and compactions
//	                across processes
//
// Each journal line is one self-contained JSON record: a lease grant or
// renewal (its absolute expiry) or a deregistration. Readers keep an
// in-memory materialized view and tail the journal from their last byte
// offset on every read; last record wins per
// (network, address), lapsed leases are filtered at Resolve time. A torn
// final line (a writer or the machine died mid-append) is skipped, never
// fatal, and the next appender self-heals the tail by terminating the
// partial line before writing its own record.
//
// Compaction bounds the file under heartbeat churn, and runs in-band: the
// append that leaves the current generation past the size threshold
// (WithCompactBytes) compacts right then, under the flock it already
// holds. Compaction materializes the current generation, writes the view as
// a snapshot into the next generation file, atomically flips the pointer,
// and deletes the old generations — except the single most-recent
// superseded one, kept as a grace copy for manual recovery. Readers that
// observe the pointer move re-materialize from the snapshot; because the
// pointer only flips after the snapshot is fully written (and writers are
// excluded by the flock throughout), a reader tailing mid-compaction sees
// either the complete old generation or the complete new one — never a
// partial view. netadmin exposes Compact as `registry compact`.
//
// Clock contract: the journal is shared through flock on one deployment
// directory, so every writer and reader runs on one host and reads one
// clock. A lease therefore travels only as its absolute expiry, stamped by
// the writer and compared by the reader on that same clock.
//
// Cross-process caveat: on platforms without flock support (see
// flock_other.go) appends from separate processes are still each a single
// O_APPEND write, but compaction cannot safely exclude them — run one
// relayd per deployment directory there.
type JournalRegistry struct {
	path         string
	compactBytes int64
	now          func() time.Time // overridable in tests

	mu   sync.Mutex // guards view, skipped, and same-process append ordering
	view journalView
	// skipped counts complete-but-undecodable journal lines tolerated while
	// tailing — the visible trace of a torn append that a later writer
	// healed over.
	skipped int
}

var (
	_ Discovery      = (*JournalRegistry)(nil)
	_ LeaseRegistrar = (*JournalRegistry)(nil)
)

// RegistryEntry is the exported view of one registered address, used by
// inspection tooling (netadmin registry list).
type RegistryEntry struct {
	Addr string `json:"addr"`
	// ExpiresUnixNano is the lease expiry in nanoseconds since the Unix
	// epoch, zero for permanent entries.
	ExpiresUnixNano int64 `json:"expires_unix_nano,omitempty"`
}

// journalView is the in-memory materialization of the journal: the decoded
// registry as of byte offset within generation gen.
type journalView struct {
	valid   bool
	gen     uint64
	offset  int64
	entries map[string][]leaseEntry
}

// journalRecord is one line of the journal. Keys are kept short because a
// heartbeating fleet writes one of these per renewal.
type journalRecord struct {
	// Op is the record kind: "lease" (grant or renewal) or "dereg".
	Op   string `json:"op"`
	Net  string `json:"net,omitempty"`
	Addr string `json:"addr,omitempty"`
	// Exp is the absolute lease expiry (ns since epoch on the host clock
	// the journal's writers and readers share); zero means a permanent
	// entry. The key "ttl", a relative second encoding of the same expiry,
	// is retired: encoding/json ignores it in an old record, and no later
	// field may reuse it.
	Exp int64 `json:"exp,omitempty"`
	// TS stamps the writer's clock at append, for forensics.
	TS int64 `json:"ts,omitempty"`
}

const (
	opLease = "lease"
	opDereg = "dereg"
)

// defaultCompactBytes is the journal size past which an append rolls the
// generation.
const defaultCompactBytes = 1 << 20

// JournalOption configures a JournalRegistry.
type JournalOption func(*JournalRegistry)

// WithCompactBytes sets the journal size past which an append compacts
// (default 1 MiB).
func WithCompactBytes(n int64) JournalOption {
	return func(r *JournalRegistry) { r.compactBytes = n }
}

// NewJournalRegistry returns a journal-backed registry rooted at path
// (conventionally <deploy-dir>/registry.jsonl).
func NewJournalRegistry(path string, opts ...JournalOption) *JournalRegistry {
	r := &JournalRegistry{path: path, compactBytes: defaultCompactBytes, now: time.Now}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

func (r *JournalRegistry) pointerPath() string { return r.path + ".gen" }

// genPath names generation g's journal file: the root path itself for
// generation 0, a numeric suffix afterwards.
func (r *JournalRegistry) genPath(g uint64) string {
	if g == 0 {
		return r.path
	}
	return fmt.Sprintf("%s.%d", r.path, g)
}

// readGen reads the current generation from the pointer file; an absent
// pointer means generation 0 (no compaction has happened yet).
func (r *JournalRegistry) readGen() (uint64, error) {
	data, err := os.ReadFile(r.pointerPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("relay: read journal generation %s: %w", r.pointerPath(), err)
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("relay: parse journal generation %s: %w", r.pointerPath(), err)
	}
	return gen, nil
}

// withFlock runs fn under the cross-process exclusive lock with the
// current generation resolved. The lock is what keeps the generation
// stable for the duration of fn — an appender cannot race another
// writer's compaction pointer flip. It lives on a sidecar file because
// compaction replaces the generation files: a lock on a superseded inode
// would not exclude a writer that opened the new one.
func (r *JournalRegistry) withFlock(fn func(gen uint64) error) error {
	lockPath := r.path + ".lock"
	f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("relay: open registry lock %s: %w", lockPath, err)
	}
	defer f.Close()
	if err := lockFile(f); err != nil {
		return fmt.Errorf("relay: lock registry %s: %w", r.path, err)
	}
	defer func() { _ = unlockFile(f) }() // closing the file would release it too
	gen, err := r.readGen()
	if err != nil {
		return err
	}
	return fn(gen)
}

// appendRecords appends records as journal lines — the O(1) write path.
// The flock is held only for the append itself (and, past the size
// threshold, the compaction it triggers), never across a load-modify-store
// cycle.
func (r *JournalRegistry) appendRecords(recs ...journalRecord) error {
	if len(recs) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.withFlock(func(gen uint64) error {
		return r.appendToGen(gen, recs)
	})
}

// appendToGen writes records to generation gen's journal and compacts when
// the write leaves the file past the size threshold; the caller holds
// r.mu and the flock. If a previous writer died mid-append the file ends
// without a newline; terminating that partial line first (self-healing the
// tail) turns it into one complete-but-undecodable line readers skip,
// instead of letting our record fuse onto it and corrupt both.
func (r *JournalRegistry) appendToGen(gen uint64, recs []journalRecord) error {
	path := r.genPath(gen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("relay: open journal %s: %w", path, err)
	}
	defer f.Close() // error paths only; the success path checks Close
	var buf bytes.Buffer
	var size int64
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		size = st.Size()
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err == nil && last[0] != '\n' {
			buf.WriteByte('\n')
		}
	}
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("relay: encode journal record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("relay: append journal %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("relay: append journal %s: %w", path, err)
	}
	if size+int64(buf.Len()) > r.compactBytes {
		return r.compactLocked(gen)
	}
	return nil
}

// Register adds permanent addresses for a network (one lease record each,
// no expiry).
func (r *JournalRegistry) Register(networkID string, addrs ...string) error {
	recs := make([]journalRecord, 0, len(addrs))
	for _, addr := range addrs {
		recs = append(recs, journalRecord{Op: opLease, Net: networkID, Addr: addr, TS: r.now().UnixNano()})
	}
	return r.appendRecords(recs...)
}

// RegisterLease implements LeaseRegistrar: one appended record carrying
// the lease's absolute expiry, ttl from now.
func (r *JournalRegistry) RegisterLease(networkID, addr string, ttl time.Duration) error {
	now := r.now()
	rec := journalRecord{Op: opLease, Net: networkID, Addr: addr, TS: now.UnixNano()}
	if ttl > 0 {
		rec.Exp = now.Add(ttl).UnixNano()
	}
	return r.appendRecords(rec)
}

// Deregister implements LeaseRegistrar with one appended removal record.
// Deregistering an absent address appends a harmless no-op record rather
// than paying a read to find out.
func (r *JournalRegistry) Deregister(networkID, addr string) error {
	return r.appendRecords(journalRecord{Op: opDereg, Net: networkID, Addr: addr, TS: r.now().UnixNano()})
}

// Resolve implements Discovery from the materialized view, filtering
// lapsed leases at read time.
func (r *JournalRegistry) Resolve(networkID string) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.refreshLocked(); err != nil {
		return nil, err
	}
	addrs := liveAddrs(r.view.entries[networkID], r.now())
	if len(addrs) == 0 {
		return nil, ErrUnknownNetwork
	}
	return addrs, nil
}

// Networks lists registered network IDs, including networks whose entries
// have all lapsed (Prune removes those).
func (r *JournalRegistry) Networks() ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.refreshLocked(); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(r.view.entries))
	for id := range r.view.entries {
		out = append(out, id)
	}
	return out, nil
}

// Entries returns every entry with its lease state for inspection tooling,
// lapsed leases included.
func (r *JournalRegistry) Entries() (map[string][]RegistryEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.refreshLocked(); err != nil {
		return nil, err
	}
	out := make(map[string][]RegistryEntry, len(r.view.entries))
	for id, list := range r.view.entries {
		exported := make([]RegistryEntry, len(list))
		for i, e := range list {
			exported[i] = RegistryEntry{Addr: e.addr}
			if !e.expires.IsZero() {
				exported[i].ExpiresUnixNano = e.expires.UnixNano()
			}
		}
		out[id] = exported
	}
	return out, nil
}

// SkippedRecords reports how many undecodable journal lines this instance
// has tolerated while tailing — nonzero after recovering a torn append.
func (r *JournalRegistry) SkippedRecords() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.skipped
}

// Prune appends deregistration records for every entry whose lease has
// lapsed, returning how many were dropped. Unlike the hot append path this
// holds the flock across its read-and-append so a renewal cannot slip
// between the lapse check and the removal record — Prune is an
// administrative operation, not a heartbeat.
func (r *JournalRegistry) Prune() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pruned := 0
	err := r.withFlock(func(gen uint64) error {
		if err := r.refreshLocked(); err != nil {
			return err
		}
		now := r.now()
		var recs []journalRecord
		for _, id := range slices.Sorted(maps.Keys(r.view.entries)) {
			for _, e := range r.view.entries[id] {
				if !e.live(now) {
					recs = append(recs, journalRecord{Op: opDereg, Net: id, Addr: e.addr, TS: now.UnixNano()})
				}
			}
		}
		pruned = len(recs)
		if pruned == 0 {
			return nil
		}
		return r.appendToGen(gen, recs)
	})
	if err != nil {
		return 0, err
	}
	return pruned, nil
}

// Compact rolls the journal over to a fresh generation: materialize the
// current generation, write the view as a snapshot into <path>.<gen+1>,
// atomically flip the pointer file, and delete the superseded generation
// files — all but the most recent one, which is kept for a one-generation
// grace window so an operator can recover by hand if the fresh snapshot is
// lost. Writers are excluded by the flock for the duration; readers keep
// serving their materialized view and re-materialize from the snapshot
// when they observe the pointer move. Lapsed-but-unpruned entries survive
// compaction with their expiry (compaction bounds the file, Prune changes
// membership). Appends run the same compaction in-band once the journal
// outgrows its threshold; Compact forces one.
func (r *JournalRegistry) Compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.withFlock(r.compactLocked)
}

// compactLocked rolls generation gen over to gen+1; the caller holds r.mu
// and the flock.
func (r *JournalRegistry) compactLocked(gen uint64) error {
	// Full materialization of the locked generation, not a tail: the
	// snapshot must carry everything.
	r.view.valid = false
	if err := r.refreshGenLocked(gen); err != nil {
		return err
	}
	next := gen + 1
	if err := r.writeSnapshot(next); err != nil {
		return err
	}
	if err := atomicWriteFile(r.pointerPath(), []byte(strconv.FormatUint(next, 10))); err != nil {
		return fmt.Errorf("relay: flip journal generation: %w", err)
	}
	// The snapshot incorporates every superseded generation. Keep the
	// single most-recent superseded generation (the one we just
	// materialized) as a grace copy — if the fresh snapshot is lost or
	// corrupted before the next compaction, an operator can point the
	// generation file back at it and lose nothing — and delete everything
	// older (crash leftovers included).
	if gen > 0 {
		_ = os.Remove(r.genPath(0))
	}
	if matches, err := filepath.Glob(r.path + ".[0-9]*"); err == nil {
		for _, m := range matches {
			if g, err := strconv.ParseUint(strings.TrimPrefix(m, r.path+"."), 10, 64); err == nil && g < gen {
				_ = os.Remove(m)
			}
		}
	}
	// Our own view now describes a superseded generation; re-materialize
	// from the snapshot lazily on the next read.
	r.view.valid = false
	return nil
}

// writeSnapshot writes the materialized view as generation gen's base:
// one lease record per entry, in deterministic order. Temp-and-rename so a
// crash mid-write leaves no half-snapshot under the generation's name.
func (r *JournalRegistry) writeSnapshot(gen uint64) error {
	now := r.now()
	var buf bytes.Buffer
	for _, id := range slices.Sorted(maps.Keys(r.view.entries)) {
		for _, e := range r.view.entries[id] {
			rec := journalRecord{Op: opLease, Net: id, Addr: e.addr, TS: now.UnixNano()}
			if !e.expires.IsZero() {
				rec.Exp = e.expires.UnixNano()
			}
			line, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("relay: encode journal snapshot: %w", err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	if err := atomicWriteFile(r.genPath(gen), buf.Bytes()); err != nil {
		return fmt.Errorf("relay: write journal snapshot: %w", err)
	}
	return nil
}

// refreshLocked brings the materialized view up to date with the journal:
// re-read the generation pointer, re-materialize if it moved (or we have
// no view yet), and tail new records from the last consumed offset. A
// generation file that vanishes mid-read means another writer compacted
// past us — re-read the pointer and start over, bounded so a genuinely
// corrupt deployment errors instead of spinning.
func (r *JournalRegistry) refreshLocked() error {
	for attempt := 0; ; attempt++ {
		gen, err := r.readGen()
		if err != nil {
			return err
		}
		err = r.refreshGenLocked(gen)
		if err == nil {
			return nil
		}
		if os.IsNotExist(err) && attempt < 5 {
			r.view.valid = false
			continue
		}
		return err
	}
}

// refreshGenLocked materializes or tails the view for one specific
// generation. Returns an os.IsNotExist error when the generation's file
// should exist but does not (rolled away underneath us).
func (r *JournalRegistry) refreshGenLocked(gen uint64) error {
	if !r.view.valid || gen != r.view.gen {
		r.view = journalView{valid: true, gen: gen, entries: make(map[string][]leaseEntry)}
	}
	f, err := os.Open(r.genPath(r.view.gen))
	if err != nil {
		if os.IsNotExist(err) && r.view.gen == 0 {
			return nil // journal not started yet: the registry is empty
		}
		return err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() < r.view.offset {
		// The file shrank under our offset (an operator truncated or
		// replaced it). Rebuild from scratch rather than tailing garbage.
		r.view.valid = false
		return r.refreshGenLocked(r.view.gen)
	}
	if _, err := f.Seek(r.view.offset, io.SeekStart); err != nil {
		return fmt.Errorf("relay: seek journal %s: %w", r.genPath(r.view.gen), err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("relay: read journal %s: %w", r.genPath(r.view.gen), err)
	}
	consumed := 0
	for {
		idx := bytes.IndexByte(data[consumed:], '\n')
		if idx < 0 {
			break // incomplete tail: an append in flight (or torn); re-read next refresh
		}
		line := data[consumed : consumed+idx]
		consumed += idx + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			r.skipped++ // healed-over torn append; the prefix before it is intact
			continue
		}
		r.applyLocked(rec)
	}
	r.view.offset += int64(consumed)
	return nil
}

// applyLocked folds one record into the materialized view: last record
// wins per (network, address).
func (r *JournalRegistry) applyLocked(rec journalRecord) {
	switch rec.Op {
	case opLease:
		if rec.Net == "" || rec.Addr == "" {
			r.skipped++
			return
		}
		r.view.entries[rec.Net] = upsertLease(r.view.entries[rec.Net], rec.Addr, leaseExpiry(rec))
	case opDereg:
		list, removed := removeLease(r.view.entries[rec.Net], rec.Addr)
		if !removed {
			return
		}
		if len(list) == 0 {
			delete(r.view.entries, rec.Net)
		} else {
			r.view.entries[rec.Net] = list
		}
	default:
		r.skipped++
	}
}

// leaseExpiry is a lease record's absolute expiry, zero for a permanent
// record.
func leaseExpiry(rec journalRecord) time.Time {
	if rec.Exp == 0 {
		return time.Time{}
	}
	return time.Unix(0, rec.Exp)
}

// atomicWriteFile writes data to path via a same-directory temp file and
// rename, so concurrent readers observe either the old file or the new —
// never a torn prefix.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return nil
}
