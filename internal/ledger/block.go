package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

var (
	// ErrNotFound is returned when a block or transaction does not exist.
	ErrNotFound = errors.New("ledger: not found")
	// ErrBrokenChain is returned when a block's PrevHash does not match the
	// chain tip.
	ErrBrokenChain = errors.New("ledger: broken hash chain")
)

// Block is an ordered batch of transactions linked to its predecessor by
// hash.
type Block struct {
	Number       uint64
	PrevHash     []byte
	Transactions []*Transaction
	Hash         []byte
}

// ComputeHash derives the block hash: SHA-256 over the block number, the
// previous hash and every transaction digest. The digests are streamed into
// it one by one, each hashed from its transaction's fields by a hashing
// walk, so its one allocation is the returned hash for any number or size
// of transactions.
func (b *Block) ComputeHash() []byte {
	sum := b.sum()
	return sum[:]
}

// sum is ComputeHash as an array.
func (b *Block) sum() [sha256.Size]byte {
	h := sha256.New()
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], b.Number)
	h.Write(num[:])
	h.Write(b.PrevHash)
	for _, tx := range b.Transactions {
		sum := tx.Sum()
		h.Write(sum[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// BlockStore is the append-only hash-chained chain of blocks plus the
// indexes needed for transaction lookup.
type BlockStore struct {
	mu     sync.RWMutex
	blocks []*Block
	byTxID map[string]txLocation
	// byInterop locates the first transaction committed as Valid for each
	// interop request key — the ledger-level replay index redundant relays
	// consult to serve a duplicate of an invoke a sibling relay committed.
	byInterop map[string]txLocation
}

type txLocation struct {
	blockNum uint64
	txIndex  int
}

// NewBlockStore returns an empty block store. The first appended block must
// have Number 0 and an empty PrevHash.
func NewBlockStore() *BlockStore {
	return &BlockStore{
		byTxID:    make(map[string]txLocation),
		byInterop: make(map[string]txLocation),
	}
}

// Height returns the number of blocks in the chain.
func (s *BlockStore) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.blocks))
}

// TipHash returns the hash of the latest block, or nil for an empty chain.
func (s *BlockStore) TipHash() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.blocks) == 0 {
		return nil
	}
	return s.blocks[len(s.blocks)-1].Hash
}

// Append validates the chain linkage, computes the block hash and appends
// the block. Every peer appends the same delivered block, so the hash is
// set only when the block does not carry it already.
func (s *BlockStore) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Number != uint64(len(s.blocks)) {
		return fmt.Errorf("%w: block number %d at height %d", ErrBrokenChain, b.Number, len(s.blocks))
	}
	if len(s.blocks) > 0 {
		tip := s.blocks[len(s.blocks)-1]
		if string(b.PrevHash) != string(tip.Hash) {
			return fmt.Errorf("%w: prev hash mismatch at block %d", ErrBrokenChain, b.Number)
		}
	} else if len(b.PrevHash) != 0 {
		return fmt.Errorf("%w: genesis block with non-empty prev hash", ErrBrokenChain)
	}
	if sum := b.sum(); string(b.Hash) != string(sum[:]) {
		b.Hash = bytes.Clone(sum[:])
	}
	s.blocks = append(s.blocks, b)
	for i, tx := range b.Transactions {
		loc := txLocation{blockNum: b.Number, txIndex: i}
		// Duplicate TxIDs short-circuit rather than reindex: the first
		// valid commit stays authoritative, so a later duplicate (which the
		// committer marks Duplicate and skips) can never shadow the
		// transaction whose effects are actually on the ledger. A valid
		// commit does displace an earlier invalid attempt with the same ID
		// — the failed-then-retried case — because lookups want the
		// transaction that took effect.
		if old, ok := s.byTxID[tx.ID]; !ok || (tx.Validation == Valid && s.txAtLocked(old).Validation != Valid) {
			s.byTxID[tx.ID] = loc
		}
		if tx.Validation == Valid && tx.InteropKey != "" {
			if _, ok := s.byInterop[tx.InteropKey]; !ok {
				s.byInterop[tx.InteropKey] = loc
			}
		}
	}
	return nil
}

func (s *BlockStore) txAtLocked(loc txLocation) *Transaction {
	return s.blocks[loc.blockNum].Transactions[loc.txIndex]
}

// Block returns the block at the given height.
func (s *BlockStore) Block(num uint64) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if num >= uint64(len(s.blocks)) {
		return nil, fmt.Errorf("%w: block %d", ErrNotFound, num)
	}
	return s.blocks[num], nil
}

// TxByID returns a committed transaction by its ID.
func (s *BlockStore) TxByID(txID string) (*Transaction, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byTxID[txID]
	if !ok {
		return nil, fmt.Errorf("%w: tx %s", ErrNotFound, txID)
	}
	return s.blocks[loc.blockNum].Transactions[loc.txIndex], nil
}

// HasValidTx reports whether a transaction with this ID has been committed
// as Valid — the committer's duplicate check. Invalid attempts (an
// MVCC-conflicted first try, say) do not count: the same TxID may
// legitimately be resubmitted until it commits.
func (s *BlockStore) HasValidTx(txID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byTxID[txID]
	return ok && s.txAtLocked(loc).Validation == Valid
}

// TxByInteropKey returns the transaction committed as Valid for an interop
// request key (wire.Query.InteropKey) — the QueryByTxID-style lookup a
// relay uses to replay a cross-network invoke a sibling relay committed.
// A miss returns the bare ErrNotFound: every first-time invoke misses, on
// the relay and on each committing peer, and no caller shows the error.
func (s *BlockStore) TxByInteropKey(key string) (*Transaction, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byInterop[key]
	if !ok {
		return nil, ErrNotFound
	}
	return s.txAtLocked(loc), nil
}

// VerifyChain re-walks the chain, recomputing hashes, and returns an error
// at the first inconsistency. It is the integrity check auditors run.
func (s *BlockStore) VerifyChain() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var prev []byte
	for i, b := range s.blocks {
		if b.Number != uint64(i) {
			return fmt.Errorf("%w: block %d numbered %d", ErrBrokenChain, i, b.Number)
		}
		if string(b.PrevHash) != string(prev) {
			return fmt.Errorf("%w: block %d prev hash", ErrBrokenChain, i)
		}
		if sum := b.sum(); string(sum[:]) != string(b.Hash) {
			return fmt.Errorf("%w: block %d hash mismatch", ErrBrokenChain, i)
		}
		prev = b.Hash
	}
	return nil
}
