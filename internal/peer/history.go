package peer

import (
	"sync"

	"repro/internal/ledger"
)

// KeyChange is one committed modification of a key, in commit order — the
// audit trail enterprises require of permissioned ledgers (the paper's
// intro lists auditability among the requirements that motivated
// permissioned networks).
type KeyChange struct {
	TxID     string
	BlockNum uint64
	TxNum    uint64
	Value    []byte
	IsDelete bool
}

// historyIndex accumulates per-key change logs as blocks commit.
type historyIndex struct {
	mu      sync.RWMutex
	changes map[nsKey][]KeyChange
}

func newHistoryIndex() *historyIndex {
	return &historyIndex{changes: make(map[nsKey][]KeyChange)}
}

func (h *historyIndex) record(block *ledger.Block) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for txNum, tx := range block.Transactions {
		if tx.Validation != ledger.Valid {
			continue
		}
		for _, w := range tx.RWSet.Writes {
			val := make([]byte, len(w.Value))
			copy(val, w.Value)
			nk := nsKey{w.Namespace, w.Key}
			h.changes[nk] = append(h.changes[nk], KeyChange{
				TxID:     tx.ID,
				BlockNum: block.Number,
				TxNum:    uint64(txNum),
				Value:    val,
				IsDelete: w.IsDelete,
			})
		}
	}
}

func (h *historyIndex) forKey(key nsKey) []KeyChange {
	h.mu.RLock()
	defer h.mu.RUnlock()
	src := h.changes[key]
	out := make([]KeyChange, len(src))
	for i, c := range src {
		val := make([]byte, len(c.Value))
		copy(val, c.Value)
		c.Value = val
		out[i] = c
	}
	return out
}

// KeyHistory returns every committed change to a namespaced key on this
// peer, oldest first. Values are copies.
func (p *Peer) KeyHistory(ns, key string) []KeyChange {
	return p.history.forKey(nsKey{ns, key})
}
