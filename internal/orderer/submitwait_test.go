package orderer

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
)

// markValid is a committer stand-in: it assigns every transaction of the
// block a validation code, as a peer does before it appends the block.
func markValid(b *ledger.Block) {
	for _, tr := range b.Transactions {
		tr.Validation = ledger.Valid
	}
}

// TestSubmitWaitReportsDeliveryErrorToEveryWaiter: when a block carrying
// several waiters fails delivery, every one of them hears about it — not
// just the caller that happened to cut the block. The consumer assigns
// validation codes before it fails, as a peer that validated a block but
// could not append it would, so a waiter that judged success by its
// transaction's validation code would be fooled.
func TestSubmitWaitReportsDeliveryErrorToEveryWaiter(t *testing.T) {
	boom := errors.New("boom")
	o := New(Config{BatchSize: 4})
	o.Register(ConsumerFunc(func(b *ledger.Block) error {
		markValid(b)
		return boom
	}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := o.SubmitWait(tx(fmt.Sprintf("w%d", i))); !errors.Is(err, boom) {
				t.Errorf("SubmitWait w%d = %v, want %v", i, err, boom)
			}
		}(i)
	}
	wg.Wait()
	if o.Height() != 0 {
		t.Fatalf("height = %d after failed deliveries, want 0", o.Height())
	}
}

// TestSubmitWaitGroupCommit pins group commit deterministically: callers
// that arrive while a block is being delivered ride the next block
// together, and none of them returns before that block is delivered.
func TestSubmitWaitGroupCommit(t *testing.T) {
	o := New(Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	o.Register(ConsumerFunc(func(b *ledger.Block) error {
		if b.Number == 0 {
			close(entered)
			<-release
		}
		markValid(b)
		return nil
	}))
	c := &capture{}
	o.Register(c)

	// submit runs one SubmitWait and checks, in the caller's goroutine, that
	// the transaction's validation code is set once the call returns.
	submit := func(tr *ledger.Transaction, done chan<- error) {
		_, err := o.SubmitWait(tr)
		if err == nil && tr.Validation != ledger.Valid {
			err = fmt.Errorf("%s returned with validation %v", tr.ID, tr.Validation)
		}
		done <- err
	}
	lead := make(chan error, 1)
	go submit(tx("lead"), lead)
	<-entered

	const riders = 7
	done := make(chan error, riders)
	for i := 0; i < riders; i++ {
		go submit(tx(fmt.Sprintf("r%d", i)), done)
	}
	deadline := time.Now().Add(5 * time.Second)
	for o.Pending() != riders {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want %d queued behind block 0", o.Pending(), riders)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-lead:
		t.Fatalf("lead returned while its block was being delivered: %v", err)
	case err := <-done:
		t.Fatalf("a rider returned before its block was delivered: %v", err)
	default:
	}

	close(release)
	if err := <-lead; err != nil {
		t.Fatalf("lead: %v", err)
	}
	for i := 0; i < riders; i++ {
		if err := <-done; err != nil {
			t.Fatalf("rider: %v", err)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.blocks) != 2 || len(c.blocks[0].Transactions) != 1 || len(c.blocks[1].Transactions) != riders {
		t.Fatalf("blocks = %d, want [1 %d] transactions", len(c.blocks), riders)
	}
	for i, b := range c.blocks {
		if b.Number != uint64(i) || !bytes.Equal(b.Hash, b.ComputeHash()) {
			t.Fatalf("block %d: number %d, hash intact %v", i, b.Number, bytes.Equal(b.Hash, b.ComputeHash()))
		}
	}
	if !bytes.Equal(c.blocks[1].PrevHash, c.blocks[0].Hash) {
		t.Fatal("block 1 not chained to block 0")
	}
	if o.Height() != 2 || o.Pending() != 0 {
		t.Fatalf("height=%d pending=%d, want 2 and 0", o.Height(), o.Pending())
	}
}

// TestSubmitWaitSeesValidation: when SubmitWait returns, a committer has
// assigned the transaction's validation code — the property
// Gateway.SubmitTx and the relay invoke path rely on — even with a batch
// size the transaction alone does not fill.
func TestSubmitWaitSeesValidation(t *testing.T) {
	o := New(Config{BatchSize: 2})
	o.Register(ConsumerFunc(func(b *ledger.Block) error {
		markValid(b)
		return nil
	}))
	transaction := tx("v")
	if _, err := o.SubmitWait(transaction); err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if transaction.Validation != ledger.Valid {
		t.Fatalf("validation = %v after SubmitWait, want Valid", transaction.Validation)
	}
}

// TestConcurrentSubmitWaitAllCommit: many concurrent waiters across many
// blocks all return, every transaction lands in exactly one block, and
// the blocks form one chain.
func TestConcurrentSubmitWaitAllCommit(t *testing.T) {
	o := New(Config{})
	c := &capture{}
	o.Register(c)
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := o.SubmitWait(tx(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("SubmitWait m%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]int)
	for i, b := range c.blocks {
		if b.Number != uint64(i) || (i > 0 && !bytes.Equal(b.PrevHash, c.blocks[i-1].Hash)) {
			t.Fatalf("block %d (numbered %d) breaks the chain", i, b.Number)
		}
		for _, tr := range b.Transactions {
			seen[tr.ID]++
		}
	}
	if len(seen) != n {
		t.Fatalf("distinct committed txs = %d, want %d", len(seen), n)
	}
	for id, count := range seen {
		if count != 1 {
			t.Fatalf("tx %s committed %d times", id, count)
		}
	}
	if o.Height() != uint64(len(c.blocks)) {
		t.Fatalf("height = %d, delivered %d blocks", o.Height(), len(c.blocks))
	}
}

// TestSubmitWaitAfterStopIsErrStopped: Stop cuts what is pending and then
// refuses SubmitWait like Submit; stopping twice is safe.
func TestSubmitWaitAfterStopIsErrStopped(t *testing.T) {
	o := New(Config{BatchSize: 100})
	c := &capture{}
	o.Register(c)
	if err := o.Submit(tx("pending")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := o.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if c.count() != 1 {
		t.Fatalf("blocks = %d, want 1 (stop flushes)", c.count())
	}
	if _, err := o.SubmitWait(tx("late")); !errors.Is(err, ErrStopped) {
		t.Fatalf("SubmitWait after stop = %v, want ErrStopped", err)
	}
	if err := o.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
}
