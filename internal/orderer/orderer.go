// Package orderer implements the solo ordering service of the simulated
// platform: endorsed transactions are collected, cut into hash-chained
// blocks, and delivered in order to every registered consumer — the peers'
// committers.
//
// There is one ordering path and it starts no goroutine. Submit appends a
// transaction to the pending batch and, once BatchSize transactions are
// pending, cuts and delivers the block before it returns. SubmitWait is
// group commit: it appends, waits until no block is being delivered, and —
// unless a caller ahead of it already delivered its transaction — cuts
// everything pending into one block. A lone caller therefore commits a
// one-transaction block, while callers that arrive during a delivery ride
// the next block together. Flush, the optional BatchTimeout timer (Start)
// and Stop cut the pending batch the same way, one delivery at a time.
package orderer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ledger"
)

var (
	// ErrStopped is returned when submitting to a stopped orderer.
	ErrStopped = errors.New("orderer: stopped")
)

// Consumer receives ordered blocks. Delivery is sequential and in block
// order; a consumer error aborts delivery of that block to later consumers
// and is reported to every submitter waiting on it.
type Consumer interface {
	CommitBlock(*ledger.Block) error
}

// ConsumerFunc adapts a function to Consumer.
type ConsumerFunc func(*ledger.Block) error

// CommitBlock implements Consumer.
func (f ConsumerFunc) CommitBlock(b *ledger.Block) error { return f(b) }

// Config controls block cutting.
type Config struct {
	// BatchSize is the number of pending transactions at which Submit cuts
	// and delivers a block. Defaults to 1, which makes Submit synchronous.
	// SubmitWait never waits for a full batch.
	BatchSize int
	// BatchTimeout cuts a partial batch that has been pending for this
	// long, once Start has launched the timer.
	BatchTimeout time.Duration
}

// batch is the next block, its transactions pending, and once it is
// delivered its outcome. Consumers keep the block, so it lives in the
// batch, and so does room for its first transaction: a one-transaction
// block costs one allocation.
type batch struct {
	block     ledger.Block
	first     [1]*ledger.Transaction
	cut       time.Time // when the batch was cut into a block
	delivered bool
	err       error
}

// Orderer is a solo ordering service.
type Orderer struct {
	cfg Config

	mu sync.Mutex
	// delivering is held by the one caller delivering a block, which runs
	// the consumers without mu so submitters append to the next batch
	// meanwhile; delivered is broadcast when it clears. A waiter whose
	// batch another caller delivered returns on that broadcast instead of
	// queueing behind the next delivery.
	delivering bool
	delivered  sync.Cond
	open       *batch // nil when nothing is pending
	consumers  []Consumer
	nextNum    uint64
	tipHash    []byte
	stopped    bool

	timerStop chan struct{}
	timerDone chan struct{}
}

// New creates an orderer with the given configuration.
func New(cfg Config) *Orderer {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	o := &Orderer{cfg: cfg}
	o.delivered.L = &o.mu
	return o
}

// Register adds a block consumer. Consumers registered earlier receive each
// block first; networks register peers before auxiliary listeners so that
// validation codes are assigned before event dispatch.
func (o *Orderer) Register(c Consumer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.consumers = append(o.consumers, c)
}

// Submit orders a transaction. If the pending batch reaches the configured
// size, the block is cut and delivered before Submit returns, and Submit
// reports its delivery outcome.
func (o *Orderer) Submit(tx *ledger.Transaction) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := o.enqueueLocked(tx)
	if err != nil || len(b.block.Transactions) < o.cfg.BatchSize {
		return err
	}
	return o.awaitLocked(b)
}

// SubmitWait orders a transaction and returns the delivery outcome of the
// block that carried it, so the transaction's validation code is final
// when it returns. Concurrent callers share blocks: a call delivers at
// most one block, holding everything pending when no other delivery is
// under way. It also returns when that block was cut: the time before it
// the transaction waited to be ordered, the time after it went to
// delivering and committing the block.
func (o *Orderer) SubmitWait(tx *ledger.Transaction) (cut time.Time, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := o.enqueueLocked(tx)
	if err != nil {
		return time.Time{}, err
	}
	err = o.awaitLocked(b)
	return b.cut, err
}

// enqueueLocked appends tx to the pending batch and returns that batch.
// Callers hold mu.
func (o *Orderer) enqueueLocked(tx *ledger.Transaction) (*batch, error) {
	if o.stopped {
		return nil, ErrStopped
	}
	if o.open == nil {
		o.open = &batch{}
		o.open.block.Transactions = o.open.first[:0]
	}
	o.open.block.Transactions = append(o.open.block.Transactions, tx)
	return o.open, nil
}

// awaitLocked returns the delivery outcome of b. While another caller
// delivers a block it waits; once none is, it delivers everything pending
// itself unless b went out meanwhile. Callers hold mu.
func (o *Orderer) awaitLocked(b *batch) error {
	for !b.delivered {
		if o.delivering {
			o.delivered.Wait()
			continue
		}
		o.deliverLocked()
	}
	return b.err
}

// Flush cuts a block from any pending transactions immediately and
// returns its delivery outcome; with nothing pending it is a no-op.
func (o *Orderer) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.delivering {
		o.delivered.Wait()
	}
	return o.deliverLocked()
}

// Height returns the number of blocks delivered so far.
func (o *Orderer) Height() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nextNum
}

// Pending returns the number of transactions waiting for the next cut.
func (o *Orderer) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.open == nil {
		return 0
	}
	return len(o.open.block.Transactions)
}

// deliverLocked cuts the pending batch into the next block and delivers it
// to every consumer, releasing mu while they run. A failed block does not
// advance the chain; its error is recorded for every transaction it
// carried. Callers hold mu, and no delivery is under way.
func (o *Orderer) deliverLocked() error {
	b := o.open
	if b == nil {
		return nil
	}
	o.open = nil
	b.cut = time.Now()
	o.delivering = true
	block := &b.block
	block.Number, block.PrevHash = o.nextNum, o.tipHash
	consumers := o.consumers
	o.mu.Unlock()

	block.Hash = block.ComputeHash()
	var err error
	for _, c := range consumers {
		if cerr := c.CommitBlock(block); cerr != nil {
			err = fmt.Errorf("deliver block %d: %w", block.Number, cerr)
			break
		}
	}

	o.mu.Lock()
	b.delivered, b.err = true, err
	if err == nil {
		o.nextNum++
		o.tipHash = block.Hash
	}
	o.delivering = false
	o.delivered.Broadcast()
	return err
}

// Start launches the batch-timeout timer. It is a no-op when BatchTimeout
// is zero or the timer already runs. Stop must be called to release the
// goroutine.
func (o *Orderer) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cfg.BatchTimeout <= 0 || o.timerStop != nil {
		return
	}
	o.timerStop = make(chan struct{})
	o.timerDone = make(chan struct{})
	go o.timerLoop(o.timerStop, o.timerDone)
}

func (o *Orderer) timerLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(o.cfg.BatchTimeout)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Best-effort: a delivery failure reaches the block's waiters;
			// the timer keeps running.
			_ = o.Flush()
		case <-stop:
			return
		}
	}
}

// Stop marks the orderer stopped, halts the timer, and flushes any pending
// batch, returning its delivery outcome.
func (o *Orderer) Stop() error {
	o.mu.Lock()
	stop, done := o.timerStop, o.timerDone
	o.timerStop, o.timerDone = nil, nil
	o.stopped = true
	o.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return o.Flush()
}
