package peer

import (
	"bytes"

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

// KeyHistory returns every committed change to a namespaced key on this
// peer, oldest first. Like Fabric's history database, which points a key
// at the block and transaction that wrote it and reads the value from the
// block, it reads the writes of the valid transactions in the peer's
// committed blocks: a commit keeps no second copy of them. Values are
// copies.
func (p *Peer) KeyHistory(ns, key string) []KeyChange {
	var out []KeyChange
	for num := range p.blocks.Height() {
		block, err := p.blocks.Block(num)
		if err != nil {
			break
		}
		for txNum, tx := range block.Transactions {
			if tx.Validation != ledger.Valid {
				continue
			}
			for _, w := range tx.RWSet.Writes {
				if w.Key == key && w.Namespace == ns {
					out = append(out, KeyChange{
						TxID:     tx.ID,
						BlockNum: block.Number,
						TxNum:    uint64(txNum),
						Value:    bytes.Clone(w.Value),
						IsDelete: w.IsDelete,
					})
				}
			}
		}
	}
	return out
}
