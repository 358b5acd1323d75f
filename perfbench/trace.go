package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// Tracing records spans at the layer boundaries the benchmark reaches from
// outside the program: the operation calls into core or capi, the
// transport calls the coordinators and the client make (through tracedNet),
// and the handler each replica node serves them with. Every span names its
// layer and the span that caused it; the spans of one operation share the
// operation's ID. Aggregates (self times, counts, quorum sizes) are kept
// for every span; full span records are kept for one operation in
// keepEvery and written out when the run ends.

// msgKind classifies a protocol or client message by what it asks the
// serving layer to do.
type msgKind uint8

const (
	kindLock msgKind = iota
	kindSnap
	kindPrepare
	kindCommit
	kindFetch
	kindEpoch
	kindPropagation
	kindCapiRead
	kindCapiWrite
	kindCapiOther
	kindOther
	numKinds
)

// replicaKinds are the kinds a replica serves, in report order.
var replicaKinds = []msgKind{kindLock, kindSnap, kindPrepare, kindCommit, kindFetch, kindEpoch, kindPropagation}

var kindNames = [numKinds]string{"lock", "snap", "prepare", "commit", "fetch", "epoch", "propagation", "capi.read", "capi.write", "capi.other", "other"}

func (k msgKind) String() string { return kindNames[k] }

// kindOf unwraps a replica.Envelope and classifies the inner message.
func kindOf(m transport.Message) msgKind {
	if env, ok := m.(replica.Envelope); ok {
		m = env.Msg
	}
	switch m.(type) {
	case replica.LockRequest, replica.LockPrepare:
		return kindLock
	case replica.ReadSnap:
		return kindSnap
	case replica.PrepareUpdate, replica.PrepareBatch, replica.PrepareReplace, replica.PrepareStale:
		return kindPrepare
	case replica.Commit, replica.Abort, replica.ApplyDirect, replica.DecisionQuery:
		return kindCommit
	case replica.FetchValue:
		return kindFetch
	case replica.StateQuery, replica.GroupStateQuery, replica.PrepareEpoch:
		return kindEpoch
	case replica.PropagationOffer, replica.PropagationData, replica.BatchPropagationOffer, replica.BatchPropagationData:
		return kindPropagation
	case capi.Read:
		return kindCapiRead
	case capi.Write:
		return kindCapiWrite
	case capi.CheckEpoch, capi.MapQuery:
		return kindCapiOther
	default:
		return kindOther
	}
}

// span is one recorded layer-boundary interval. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
}

type interval struct{ start, end int64 }

// covered returns how much of [start, end] the intervals cover, counting
// overlapping intervals once.
func covered(start, end int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := start
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// samples is a mutex-guarded list of nanosecond durations.
type samples struct {
	mu sync.Mutex
	v  []int64
}

func (s *samples) add(d int64) {
	s.mu.Lock()
	s.v = append(s.v, d)
	s.mu.Unlock()
}

// opSpan is an operation in flight; the transport calls made on its
// behalf find it through the context.
type opSpan struct {
	id    uint64
	keep  bool
	layer string
	name  string
	start int64

	mu     sync.Mutex
	calls  []interval
	syncs  int   // synchronous rounds (Call / MulticastFunc)
	lockNs int64 // time its lock and snap calls spent in replica serves
}

// callSpan is a transport call in flight; the serve spans it causes find
// it through the context.
type callSpan struct {
	id    uint64
	op    *opSpan
	kind  msgKind
	start int64

	mu     sync.Mutex
	serves []interval
}

type opKey struct{}
type callKey struct{}

const maxKeptSpans = 200_000

// tracer holds a traced run's spans and aggregates.
type tracer struct {
	on        atomic.Bool // off during set-up and warm-up
	epoch     time.Time
	keepEvery uint64
	nextID    atomic.Uint64

	keptMu sync.Mutex
	kept   []span

	opSelf samples // client operations: span minus covered call time
	// Write spans and the lock and snap serve time under each, paired by
	// index.
	writeMu             sync.Mutex
	writeDur, writeLock []int64
	checkEpoch          samples // core CheckEpoch spans
	callLat             [numKinds]samples
	callSelf            samples // call span minus covered serve time, all kinds
	serve               [numKinds]samples

	ops, rounds    atomic.Int64 // client operations and their sync rounds
	msgs           atomic.Int64 // messages sent (per target, incl. one-way)
	failedCalls    atomic.Int64 // per-target results that failed in transport
	readQ, readN   atomic.Int64 // ReadSnap multicast target counts
	writeQ, writeN atomic.Int64 // LockPrepare multicast target counts
}

func newTracer(keepEvery uint64) *tracer {
	return &tracer{epoch: time.Now(), keepEvery: keepEvery}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) keep(s span) {
	t.keptMu.Lock()
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
	t.keptMu.Unlock()
}

// beginOp opens an operation span (layer "core" or "capi"). A nil tracer
// returns ctx unchanged and a nil span.
func (t *tracer) beginOp(ctx context.Context, layer, name string) (context.Context, *opSpan) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	id := t.nextID.Add(1)
	op := &opSpan{id: id, keep: id%t.keepEvery == 0, layer: layer, name: name, start: t.now()}
	return context.WithValue(ctx, opKey{}, op), op
}

// endOp closes op. Client operations feed the self-time and round
// aggregates; epoch checks feed their own latency list.
func (t *tracer) endOp(op *opSpan, err error) {
	if op == nil {
		return
	}
	end := t.now()
	op.mu.Lock()
	self := end - op.start - covered(op.start, end, op.calls)
	syncs, lockNs := op.syncs, op.lockNs
	op.mu.Unlock()
	switch op.name {
	case "checkepoch":
		t.checkEpoch.add(end - op.start)
	case "write":
		t.writeMu.Lock()
		t.writeDur = append(t.writeDur, end-op.start)
		t.writeLock = append(t.writeLock, lockNs)
		t.writeMu.Unlock()
		fallthrough
	default:
		t.opSelf.add(self)
		t.ops.Add(1)
		t.rounds.Add(int64(syncs))
	}
	if op.keep {
		t.keep(span{ID: op.id, Op: op.id, Layer: op.layer, Name: op.name, Start: op.start, End: end, Err: err != nil})
	}
}

func (t *tracer) beginCall(ctx context.Context, req transport.Message) (context.Context, *callSpan) {
	op, _ := ctx.Value(opKey{}).(*opSpan)
	cs := &callSpan{id: t.nextID.Add(1), op: op, kind: kindOf(req), start: t.now()}
	return context.WithValue(ctx, callKey{}, cs), cs
}

// endCall closes cs; sync marks a round the caller waited on.
func (t *tracer) endCall(cs *callSpan, sync bool, failed bool) {
	end := t.now()
	cs.mu.Lock()
	served := covered(cs.start, end, cs.serves)
	cs.mu.Unlock()
	t.callLat[cs.kind].add(end - cs.start)
	t.callSelf.add(end - cs.start - served)
	if cs.op == nil {
		return
	}
	cs.op.mu.Lock()
	cs.op.calls = append(cs.op.calls, interval{cs.start, end})
	if cs.kind == kindLock || cs.kind == kindSnap {
		cs.op.lockNs += served
	}
	if sync {
		cs.op.syncs++
	}
	cs.op.mu.Unlock()
	if cs.op.keep {
		t.keep(span{ID: cs.id, Parent: cs.op.id, Op: cs.op.id, Layer: "transport", Name: cs.kind.String(), Start: cs.start, End: end, Err: failed})
	}
}

// serveHandler wraps a node's handler to time what it serves.
func (t *tracer) serveHandler(h transport.Handler) transport.Handler {
	return func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
		if !t.on.Load() {
			return h(ctx, from, req)
		}
		start := t.now()
		reply, err := h(ctx, from, req)
		end := t.now()
		k := kindOf(req)
		t.serve[k].add(end - start)
		if cs, ok := ctx.Value(callKey{}).(*callSpan); ok {
			cs.mu.Lock()
			cs.serves = append(cs.serves, interval{start, end})
			cs.mu.Unlock()
			if cs.op != nil && cs.op.keep {
				t.keep(span{ID: t.nextID.Add(1), Parent: cs.id, Op: cs.op.id, Layer: "replica", Name: k.String(), Start: start, End: end, Err: err != nil})
			}
		}
		return reply, err
	}
}

// writeSpans writes the kept spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.keptMu.Lock()
	defer t.keptMu.Unlock()
	buf, err := json.Marshal(t.kept)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// asyncNet is a transport that can also send one-way.
type asyncNet interface {
	transport.Net
	transport.AsyncSender
}

// tracedNet wraps a transport and times every call through it. It
// forwards SendAsync, so a coordinator over it keeps the one-way commit
// and release paths it takes over the bare transport.
type tracedNet struct {
	inner asyncNet
	t     *tracer
}

var (
	_ transport.Net         = (*tracedNet)(nil)
	_ transport.AsyncSender = (*tracedNet)(nil)
)

func (n *tracedNet) Register(id nodeset.ID, h transport.Handler) {
	n.inner.Register(id, n.t.serveHandler(h))
}

func (n *tracedNet) Served(id nodeset.ID) uint64 { return n.inner.Served(id) }

func (n *tracedNet) Call(ctx context.Context, from, to nodeset.ID, req transport.Message) (transport.Message, error) {
	if !n.t.on.Load() {
		return n.inner.Call(ctx, from, to, req)
	}
	cctx, cs := n.t.beginCall(ctx, req)
	reply, err := n.inner.Call(cctx, from, to, req)
	failed := errors.Is(err, transport.ErrCallFailed)
	n.t.msgs.Add(1)
	if failed {
		n.t.failedCalls.Add(1)
	}
	n.t.endCall(cs, true, failed)
	return reply, err
}

func (n *tracedNet) MulticastFunc(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message, fn func(to nodeset.ID, r transport.Result)) {
	if !n.t.on.Load() {
		n.inner.MulticastFunc(ctx, from, targets, req, fn)
		return
	}
	cctx, cs := n.t.beginCall(ctx, req)
	failed := int64(0)
	n.inner.MulticastFunc(cctx, from, targets, req, func(to nodeset.ID, r transport.Result) {
		if errors.Is(r.Err, transport.ErrCallFailed) {
			failed++
		}
		fn(to, r)
	})
	size := int64(targets.Len())
	n.t.msgs.Add(size)
	n.t.failedCalls.Add(failed)
	if env, ok := req.(replica.Envelope); ok {
		switch env.Msg.(type) {
		case replica.ReadSnap:
			n.t.readQ.Add(size)
			n.t.readN.Add(1)
		case replica.LockPrepare:
			n.t.writeQ.Add(size)
			n.t.writeN.Add(1)
		}
	}
	n.t.endCall(cs, true, failed > 0)
}

func (n *tracedNet) SendAsync(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message) {
	if !n.t.on.Load() {
		n.inner.SendAsync(ctx, from, targets, req)
		return
	}
	cctx, cs := n.t.beginCall(ctx, req)
	n.inner.SendAsync(cctx, from, targets, req)
	n.t.msgs.Add(int64(targets.Len()))
	n.t.endCall(cs, false, false)
}
