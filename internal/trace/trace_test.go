package trace

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestNilRecorderRecordsNothing: the untraced path — no recorder in the
// context — records nothing and allocates nothing.
func TestNilRecorderRecordsNothing(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		rec := FromContext(ctx)
		start := rec.Start()
		rec.End(Codec, start)
		rec.Merge([]wire.Span{{Relay: "x"}})
		if rec.ID() != "" || rec.Spans() != nil || !start.IsZero() {
			t.Fatal("nil recorder recorded")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced stage costs %v allocations, want 0", allocs)
	}
}

// TestRecorderKeepsItsOwnSpansUnderAFullReply: spans received from further
// down the path fill at most what the recorder's own leave of the cap, so
// a hop that sends a full list cannot crowd them out.
func TestRecorderKeepsItsOwnSpansUnderAFullReply(t *testing.T) {
	rec := New("t", "origin")
	var flood []wire.Span
	for i := range 1000 {
		flood = append(flood, wire.Span{Relay: "hub", Stage: Queue, StartNanos: uint64(i)})
	}
	rec.Merge(flood)
	rec.Merge(flood) // a second copy adds nothing
	start := rec.Start()
	rec.End(Codec, start)
	rec.Record(Queue, start, time.Millisecond)
	spans := rec.Spans()
	if len(spans) != wire.MaxSpans {
		t.Fatalf("%d spans, want %d", len(spans), wire.MaxSpans)
	}
	own := spans[len(spans)-2:]
	if own[0].Relay != "origin" || own[0].Stage != Codec || own[1].Stage != Queue || own[1].DurNanos != uint64(time.Millisecond) {
		t.Fatalf("own spans %+v, want codec then a 1ms queue from origin", own)
	}
	if got, ok := ServeOf(spans, "hub"); ok || got != 0 {
		t.Fatalf("ServeOf found a serve span the hub never sent: %v", got)
	}
}

func TestNested(t *testing.T) {
	for stage, want := range map[string]bool{Serve: true, Sign: true, Seal: true, Chaincode + "ecc": true,
		Chaincode: false, PeerRead: false, Build: false, Queue: false, GatewayEval: false} {
		if Nested(stage) != want {
			t.Errorf("Nested(%q) = %v, want %v", stage, !want, want)
		}
	}
}

// TestRecorderConcurrentUse: attestors record on one recorder at once
// while a reply's spans are merged and read.
func TestRecorderConcurrentUse(t *testing.T) {
	rec := New("t", "src")
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				rec.End(Sign, rec.Start())
				rec.Merge([]wire.Span{{Relay: "hub", Stage: Queue, StartNanos: uint64(g*4 + i)}})
				_ = rec.Spans()
			}
		}()
	}
	wg.Wait()
	if n := len(rec.Spans()); n != wire.MaxSpans {
		t.Fatalf("%d spans after 64 recorded and 32 merged, want the cap of %d", n, wire.MaxSpans)
	}
}
