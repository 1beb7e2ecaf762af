package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/wire"
)

// The probe ladder attributes an op's latency to layers from outside the
// program: after the measured window, on the same deployment, it issues
// equivalent requests at successively deeper public entry points and times
// each call. Differences of adjacent p50s are the layers' self times.
//
//	depth 0  core.Client.RemoteQuery / RemoteInvoke (+ Submit for transfer)
//	depth 1  SWT.Relay.Query / Invoke             (origin relay, whole path)
//	depth 2  STL.Relay.HandleEnvelope             (source relay, in-process)
//	depth 3  STL.Driver.Query / Invoke            (proof build, commit)
//	depth 4  STL core.Client.Evaluate             (one local peer read)
const ladderDepths = 5

type ladder struct {
	depth [ladderDepths][]time.Duration // samples per depth

	// transfer only: the two stages of depth 0, and a Submit that stores
	// without validating.
	queryStage, accept, put []time.Duration

	requestBytes, responseBytes int // envelope sizes at the depth-2 probe
}

// p50s returns each depth's median in ms.
func (l *ladder) p50s() []float64 {
	out := make([]float64, ladderDepths)
	for i := range l.depth {
		out[i] = percentile(sortedMillis(l.depth[i]), 50)
	}
	return out
}

func (l *ladder) merge(o *ladder) {
	for i := range l.depth {
		l.depth[i] = append(l.depth[i], o.depth[i]...)
	}
	l.queryStage = append(l.queryStage, o.queryStage...)
	l.accept = append(l.accept, o.accept...)
	l.put = append(l.put, o.put...)
	if l.requestBytes == 0 {
		l.requestBytes, l.responseBytes = o.requestBytes, o.responseBytes
	}
}

// probeQuery copies a query a real client op sent. A cold probe gets a
// fresh nonce so the source does the full work again, and an invoke probe
// also a fresh RequestID and, like every invoke, a log of its own; a hot
// probe is left byte-identical so the cache answers it. Copying, rather
// than building a wire.Query here, keeps the probes valid when capability
// fields are added or removed.
func (d *deployment) probeQuery(sent *wire.Query, c, round, i, depth int) (*wire.Query, error) {
	q := *sent
	if d.wl.kind == opQueryHot {
		return &q, nil
	}
	q.Nonce = make([]byte, len(sent.Nonce))
	if _, err := rand.Read(q.Nonce); err != nil {
		return nil, err
	}
	if d.wl.kind == opInvoke {
		q.RequestID = fmt.Sprintf("bench-probe-%d-%d-%d-%d", c, round, i, depth)
		q.Args = [][]byte{[]byte(q.RequestID), sent.Args[1]}
	}
	return &q, nil
}

func checkReply(resp *wire.QueryResponse, err error) error {
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("source answered with error: %s", resp.Error)
	}
	if len(resp.Attestations) == 0 {
		return fmt.Errorf("answer carries no attestation")
	}
	return nil
}

// climb runs the ladder for dur, one round-robin loop per client so the
// probes see the same concurrency the window did.
func climb(ctx context.Context, d *deployment, dur time.Duration) (*ladder, error) {
	deadline := time.Now().Add(dur)
	parts := make([]*ladder, len(d.clients))
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = &ladder{}
			for round := 0; time.Now().Before(deadline) && ctx.Err() == nil; round++ {
				if errs[c] = d.round(ctx, parts[c], c, round); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := &ladder{}
	for c, part := range parts {
		if errs[c] != nil {
			return nil, fmt.Errorf("probe ladder, client %d: %w", c, errs[c])
		}
		total.merge(part)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return total, nil
}

// ladderBlock is how many requests a round issues at one depth before it
// moves to the next: long enough that a depth runs on warm code and caches
// as it does in the window, short enough that every depth sees the same
// machine (a round takes well under a second).
const ladderBlock = 8

// round issues ladderBlock requests at every depth in turn, for client c's
// next keys.
func (d *deployment) round(ctx context.Context, l *ladder, c, round int) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	stl, swt := d.chain.World.STL, d.chain.World.SWT
	invoke := d.wl.kind == opInvoke

	var sent [ladderBlock]*wire.Query
	for i := range sent {
		start := time.Now()
		q, queryStage, err := d.op(ctx, c)
		if err != nil {
			return fmt.Errorf("depth 0: %w", err)
		}
		took := time.Since(start)
		sent[i] = q
		l.depth[0] = append(l.depth[0], took)
		if d.wl.kind == opTransfer {
			l.queryStage = append(l.queryStage, queryStage)
			l.accept = append(l.accept, took-queryStage)
		}
	}

	// depth 1: the origin relay, which walks the whole transport path.
	for i := range sent {
		q, err := d.probeQuery(sent[i], c, round, i, 1)
		if err != nil {
			return err
		}
		start := time.Now()
		if invoke {
			err = checkReply(swt.Relay.Invoke(ctx, q))
		} else {
			err = checkReply(swt.Relay.Query(ctx, q))
		}
		if err != nil {
			return fmt.Errorf("depth 1: %w", err)
		}
		l.depth[1] = append(l.depth[1], time.Since(start))
	}

	// depth 2: the source relay's server-side entry, without the wire.
	for i := range sent {
		q, err := d.probeQuery(sent[i], c, round, i, 2)
		if err != nil {
			return err
		}
		env := &wire.Envelope{Version: wire.ProtocolVersion, Type: wire.MsgQuery, RequestID: q.RequestID, Payload: q.Marshal()}
		if invoke {
			env.Type = wire.MsgInvoke
		}
		start := time.Now()
		reply := stl.Relay.HandleEnvelope(ctx, env)
		took := time.Since(start)
		if reply.Type != wire.MsgQueryResponse {
			return fmt.Errorf("depth 2: reply type %s: %s", reply.Type, reply.Payload)
		}
		if err := checkReply(wire.UnmarshalQueryResponse(reply.Payload)); err != nil {
			return fmt.Errorf("depth 2: %w", err)
		}
		l.depth[2] = append(l.depth[2], took)
		if l.requestBytes == 0 {
			l.requestBytes, l.responseBytes = len(env.Marshal()), len(reply.Marshal())
		}
	}

	// depth 3: the driver — peer reads, cache, batch window, sign + seal,
	// and for invokes endorse/order/commit.
	for i := range sent {
		q, err := d.probeQuery(sent[i], c, round, i, 3)
		if err != nil {
			return err
		}
		start := time.Now()
		if invoke {
			err = checkReply(stl.Driver.Invoke(ctx, q))
		} else {
			err = checkReply(stl.Driver.Query(ctx, q))
		}
		if err != nil {
			return fmt.Errorf("depth 3: %w", err)
		}
		l.depth[3] = append(l.depth[3], time.Since(start))
	}

	// depth 4: one local read of the state the depth-0 op read or wrote,
	// which its first argument names.
	contract, function := tradelens.ChaincodeName, tradelens.FnGetBillOfLading
	if invoke {
		contract, function = scenario.AuditChaincodeName, "Read"
	}
	for _, q := range sent {
		start := time.Now()
		if _, err := d.local.Evaluate(ctx, contract, function, q.Args[0]); err != nil {
			return fmt.Errorf("depth 4: %w", err)
		}
		l.depth[4] = append(l.depth[4], time.Since(start))
	}

	if d.wl.kind == opTransfer {
		for _, q := range sent {
			start := time.Now()
			if _, err := d.clients[c].Submit(ctx, acceptCC, "Put", q.Args[0], d.want[string(q.Args[0])]); err != nil {
				return fmt.Errorf("put probe: %w", err)
			}
			l.put = append(l.put, time.Since(start))
		}
	}
	return nil
}
