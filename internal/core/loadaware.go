package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

const (
	// loadAlpha is the EWMA smoothing factor: each refresh replaces 30% of
	// the estimate with the newly observed request rate. High enough to
	// track a shifting hot spot within a few refresh intervals, low enough
	// that one bursty sample does not stampede every coordinator off an
	// endpoint at once.
	loadAlpha = 0.3
	// loadRefreshInterval is the minimum time between samplings of the
	// transport's served counters. Quorum selection calls maybeRefresh on
	// every operation; the interval (plus the TryLock) makes that a cheap
	// atomic comparison for all but one caller per interval.
	loadRefreshInterval = 5 * time.Millisecond
)

// LoadTracker maintains a per-endpoint load estimate — an EWMA of the rate
// of requests each node served, sampled from the transport's served
// counters — for load-aware quorum selection (StrategyLoadAware) and the
// optimized solver's load term. The process-shared StrategyEngine owns
// one, so every coordinator steers around the same observed hot spots.
//
// Load reads are lock-free and allocation-free; refreshes are serialized
// by a TryLock so a stalled sampler never blocks the operation path. A nil
// *LoadTracker is inert (Load reports 0).
type LoadTracker struct {
	ids    []nodeset.ID
	index  []int32 // node ID -> position+1 in ids; 0 = untracked
	cells  []loadCell
	gauges []*obs.Gauge // core_endpoint_load_ewma cells, aligned with ids
	// sample reads a node's cumulative served-request count; it is the
	// transport's Served counter in production and a test seam here.
	sample func(nodeset.ID) uint64

	last atomic.Int64 // unix nanos of the last refresh (admission check)

	mu    sync.Mutex // serializes refreshes
	prevT int64      // unix nanos of the last sample, under mu
}

// loadCell is one endpoint's estimate. prev is only touched under the
// tracker mutex; ewma is the float64-bits EWMA read lock-free by Load.
// Padding keeps concurrently-read cells off each other's cache lines.
type loadCell struct {
	ewma atomic.Uint64
	prev uint64
	_    [48]byte
}

// newLoadTracker tracks the members' load as read by sample (the
// transport's Served counter), publishing the estimates through reg's
// core_endpoint_load_ewma gauge vector (indexed by node ID).
func newLoadTracker(members nodeset.Set, sample func(nodeset.ID) uint64, reg *obs.Registry) *LoadTracker {
	ids := members.IDs()
	maxID := nodeset.ID(0)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	t := &LoadTracker{
		ids:    ids,
		index:  make([]int32, int(maxID)+2),
		cells:  make([]loadCell, len(ids)),
		gauges: make([]*obs.Gauge, len(ids)),
		sample: sample,
	}
	vec := reg.GaugeVec("core_endpoint_load_ewma")
	for i, id := range ids {
		t.index[id] = int32(i) + 1
		t.cells[i].prev = sample(id)
		t.gauges[i] = vec.At(int(id))
	}
	now := time.Now().UnixNano()
	t.prevT = now
	t.last.Store(now)
	return t
}

// Load returns the node's current EWMA request rate (requests/second).
// Untracked nodes — and every node of a nil tracker — report 0. The
// signature matches coterie.LoadFunc.
func (t *LoadTracker) Load(id nodeset.ID) float64 {
	if t == nil || int(id) >= len(t.index) {
		return 0
	}
	p := t.index[id]
	if p == 0 {
		return 0
	}
	return math.Float64frombits(t.cells[p-1].ewma.Load())
}

// maybeRefresh re-samples the served counters if at least
// loadRefreshInterval has passed. Called on the quorum-selection path:
// the fast path is one atomic load and a comparison, and a refresh
// already in flight is never waited on.
func (t *LoadTracker) maybeRefresh() {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	if now-t.last.Load() < int64(loadRefreshInterval) {
		return
	}
	if !t.mu.TryLock() {
		return
	}
	if now-t.last.Load() >= int64(loadRefreshInterval) {
		t.refreshLocked(now)
	}
	t.mu.Unlock()
}

// Refresh forces an immediate re-sample regardless of the interval
// (tests; a metrics scraper wanting fresh gauges).
func (t *LoadTracker) Refresh() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.refreshLocked(time.Now().UnixNano())
	t.mu.Unlock()
}

// refreshLocked folds one served-counter delta into every cell's EWMA and
// publishes the rounded estimate to the gauge vector. Counter regressions
// (a transport ResetStats) clamp the delta to zero rather than poisoning
// the estimate.
func (t *LoadTracker) refreshLocked(now int64) {
	dt := float64(now-t.prevT) / float64(time.Second)
	if dt <= 0 {
		t.last.Store(now)
		return
	}
	for i, id := range t.ids {
		c := &t.cells[i]
		served := t.sample(id)
		delta := served - c.prev
		if served < c.prev {
			delta = 0
		}
		c.prev = served
		rate := float64(delta) / dt
		next := loadAlpha*rate + (1-loadAlpha)*math.Float64frombits(c.ewma.Load())
		c.ewma.Store(math.Float64bits(next))
		t.gauges[i].Set(int64(next))
	}
	t.prevT = now
	t.last.Store(now)
}
