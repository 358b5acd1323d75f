package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// StrategyEngine is the process-shared quorum-strategy engine: every
// coordinator of a process picks its read and write quorums through one
// engine (Options.Engine), built once by NewStrategyEngine. A nil engine
// is the hint rotation (StrategyHint). The engine owns the LoadTracker
// that StrategyLoadAware steers by and that StrategyOptimized folds into
// its solves.
//
// Under StrategyOptimized it keeps an atomically-swapped snapshot of the
// solved quorum distribution per epoch and serves allocation-free
// weighted picks from it. The first pick that meets an unsolved epoch
// solves it synchronously; concurrent pickers of that epoch wait for the
// one solve and are then served from the per-epoch cache. Later
// re-solves, which track load drift and the read mix, run on a
// low-frequency tick in a background goroutine. Picks fall back to the
// hint rotation only when a solve fails.
//
// One engine serves every coordinator that shares a registry and member
// set — the solved distribution depends only on the layout, capacities
// and load signal, none of which are per-item, and the Frank-Wolfe solve
// is far too expensive to run once per item per node (a 9-node, 8-item
// process solved ~70× more often than the tick intends when each
// coordinator had its own engine, saturating small machines).
//
// The hot path (pickRead/pickWrite) is: one atomic pointer load, one
// epoch-equality check on preallocated sets, one alias-table lookup, one
// counter increment — no heap allocations (gated by
// TestOptimizedPickAllocs / `make check-allocs`).
type StrategyEngine struct {
	strategy QuorumStrategy
	// load/loadFn are the shared load signal; loadFn is the bound method
	// value, resolved once so the hot path allocates nothing.
	load     *LoadTracker
	loadFn   coterie.LoadFunc
	capacity coterie.LoadFunc
	// interval is optimizeInterval; tests stretch it to keep the tick
	// from firing.
	interval time.Duration
	// reads/writes observe the registry-shared operation counters so the
	// solver can weight the read and write blocks by the measured mix.
	readsTotal, writesTotal *obs.Counter

	metrics strategyMetrics

	snap        atomic.Pointer[stratSnapshot]
	recomputing atomic.Bool
	lastSolve   atomic.Int64 // unix nanos of the last solve attempt

	// solveMu serializes synchronous first solves, so pickers meeting the
	// same unsolved epoch at once share one solve.
	solveMu sync.Mutex
	// cache keeps the most recent snapshot per epoch. Items reconfigure
	// independently, so two items can transiently live in different
	// epochs; with only the single fast-path pointer their picks would
	// ping-pong it between epochs and (worse) each mismatch would demand
	// a fresh Frank-Wolfe solve. The cache lets every recently-solved
	// epoch keep serving its distribution; the fast-path pointer is just
	// a lock-free shortcut to whichever epoch picked last.
	mu        sync.Mutex
	cache     [snapCacheSlots]*stratSnapshot
	cacheNext int
}

// optimizeInterval is the background re-solve tick of StrategyOptimized:
// how often the quorum distribution is re-solved against current load
// and read mix.
const optimizeInterval = 200 * time.Millisecond

// snapCacheSlots bounds the per-epoch snapshot cache. Epochs in flight at
// once come from staggered per-item reconfiguration and, in a sharded
// daemon, from shards with different replica sets (each daemon of a
// 9-node, 64-shard, 3-replica cluster hosts 10–19 distinct ones). An
// evicted epoch is solved again by its next pick, so the cache must hold
// every live one.
const snapCacheSlots = 64

// stratSnapshot is one published distribution. All fields are immutable
// after publication; the candidate sets are returned to callers by value
// (sharing their backing words, as Layout.Epoch does) and must not be
// modified.
type stratSnapshot struct {
	epoch nodeset.Set
	// reads/writes are nil when the epoch's solve failed: its picks use
	// the hint rotation until a background re-solve succeeds.
	reads  []nodeset.Set
	writes []nodeset.Set
	rTable *coterie.Alias
	wTable *coterie.Alias
	// rPicks/wPicks are the pick counters, resolved at snapshot
	// construction so the pick path never touches registry maps. They are
	// keyed by quorum cardinality, not candidate slot: slot k maps to a
	// different quorum after every re-enumeration or epoch change, so
	// per-slot series would silently aggregate unrelated quorums, while
	// size is stable across recomputes and is the "quorum shape" cotop
	// renders.
	rPicks []*obs.Counter
	wPicks []*obs.Counter
}

// strategyMetrics are the optimizer's observability attachments, resolved
// once. Nil-safe via the registry's Nop behavior.
type strategyMetrics struct {
	recomputes  *obs.Counter    // core_strategy_recomputes_total
	recomputeNs *obs.Histogram  // core_strategy_recompute_ns
	entropy     *obs.GaugeVec   // core_strategy_entropy_milli: [0]=read, [1]=write
	capacity    *obs.Gauge      // core_strategy_capacity_milli (predicted, ×1000)
	rPickVec    *obs.CounterVec // core_strategy_read_pick_total by quorum size
	wPickVec    *obs.CounterVec // core_strategy_write_pick_total by quorum size
	nodeCap     *obs.GaugeVec   // core_node_capacity_milli by node ID
}

func newStrategyMetrics(r *obs.Registry) strategyMetrics {
	return strategyMetrics{
		recomputes:  r.Counter("core_strategy_recomputes_total"),
		recomputeNs: r.Histogram("core_strategy_recompute_ns"),
		entropy:     r.GaugeVec("core_strategy_entropy_milli"),
		capacity:    r.Gauge("core_strategy_capacity_milli"),
		rPickVec:    r.CounterVec("core_strategy_read_pick_total"),
		wPickVec:    r.CounterVec("core_strategy_write_pick_total"),
		nodeCap:     r.GaugeVec("core_node_capacity_milli"),
	}
}

// NewStrategyEngine builds the engine every coordinator of a process
// shares (through Options.Engine) for the given strategy, tracking the
// members' load on net and publishing into reg. capacities assigns
// StrategyOptimized's relative node capacities (only ratios matter;
// unlisted nodes are 1.0, nil is homogeneous); a node with capacity 0.25
// receives roughly a quarter of the quorum mass a full-capacity peer
// does. StrategyHint returns nil, the hint rotation.
func NewStrategyEngine(strategy QuorumStrategy, net transport.Net, members nodeset.Set, capacities map[nodeset.ID]float64, reg *obs.Registry) *StrategyEngine {
	if strategy == StrategyHint {
		return nil
	}
	s := &StrategyEngine{
		strategy:    strategy,
		load:        newLoadTracker(members, net.Served, reg),
		interval:    optimizeInterval,
		readsTotal:  reg.Counter("core_reads_total"),
		writesTotal: reg.Counter("core_writes_total"),
	}
	s.loadFn = s.load.Load
	if strategy != StrategyOptimized {
		return s
	}
	s.metrics = newStrategyMetrics(reg)
	s.capacity = func(id nodeset.ID) float64 {
		if c, ok := capacities[id]; ok {
			return c
		}
		return 1
	}
	// Publish configured capacities so capi scrapes and cotop can show the
	// heterogeneity the solver is working with.
	for _, id := range members.IDs() {
		s.metrics.nodeCap.At(int(id)).Set(int64(s.capacity(id) * 1000))
	}
	return s
}

// readFrac returns the observed read fraction of the registry's operation
// counters, or 0.5 before enough samples exist.
func (s *StrategyEngine) readFrac() float64 {
	r := float64(s.readsTotal.Load())
	w := float64(s.writesTotal.Load())
	if r+w < 64 {
		return 0.5
	}
	return r / (r + w)
}

// pickRead returns a read quorum of lay over avail (the epoch lay was
// compiled for) under the engine's strategy, for the hint value h.
func (s *StrategyEngine) pickRead(lay *coterie.Layout, avail nodeset.Set, h int) (nodeset.Set, bool) {
	if s.strategy == StrategyLoadAware {
		s.load.maybeRefresh()
		return lay.ReadQuorumLoaded(avail, s.loadFn, h)
	}
	snap := s.snapshot(lay, avail)
	if k := snap.rTable.Pick(uint64(h)); k >= 0 {
		snap.rPicks[k].Inc()
		return snap.reads[k], true
	}
	return lay.ReadQuorum(avail, h)
}

// pickWrite is pickRead's write analogue.
func (s *StrategyEngine) pickWrite(lay *coterie.Layout, avail nodeset.Set, h int) (nodeset.Set, bool) {
	if s.strategy == StrategyLoadAware {
		s.load.maybeRefresh()
		return lay.WriteQuorumLoaded(avail, s.loadFn, h)
	}
	snap := s.snapshot(lay, avail)
	if k := snap.wTable.Pick(uint64(h)); k >= 0 {
		snap.wPicks[k].Inc()
		return snap.writes[k], true
	}
	return lay.WriteQuorum(avail, h)
}

// snapshot returns the snapshot of the epoch the caller is selecting over
// — the lock-free fast-path pointer when it matches, else the per-epoch
// cache, else a synchronous solve. It then starts a background re-solve
// if the last solve is older than the interval. Background re-solves are
// rate-limited to one per interval no matter how many epochs are live:
// the engine is shared by every coordinator, and letting each epoch
// demand its own tick would run Frank-Wolfe back-to-back whenever two
// items transiently disagree on membership.
func (s *StrategyEngine) snapshot(lay *coterie.Layout, avail nodeset.Set) *stratSnapshot {
	snap := s.snap.Load()
	if snap == nil || !snap.epoch.Equal(avail) {
		snap = s.solved(lay, avail)
		// Promote so subsequent picks for this epoch stay lock-free.
		s.snap.Store(snap)
	}
	if now := time.Now().UnixNano(); now-s.lastSolve.Load() >= int64(s.interval) {
		s.trigger(lay, avail)
	}
	return snap
}

// solved returns the cached snapshot of epoch, solving it first when the
// cache has none. Callers racing on the same unsolved epoch queue on
// solveMu, and all but the first find the snapshot it stored.
func (s *StrategyEngine) solved(lay *coterie.Layout, epoch nodeset.Set) *stratSnapshot {
	if snap := s.cached(epoch); snap != nil {
		return snap
	}
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	if snap := s.cached(epoch); snap != nil {
		return snap
	}
	return s.recompute(lay, epoch.Clone())
}

// cached returns the cache entry for the given epoch, or nil.
func (s *StrategyEngine) cached(epoch nodeset.Set) *stratSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.cache {
		if c != nil && c.epoch.Equal(epoch) {
			return c
		}
	}
	return nil
}

// storeCache inserts a freshly-solved snapshot, replacing the entry for
// the same epoch if one exists, else the oldest slot.
func (s *StrategyEngine) storeCache(snap *stratSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.cache {
		if c != nil && c.epoch.Equal(snap.epoch) {
			s.cache[i] = snap
			return
		}
	}
	s.cache[s.cacheNext] = snap
	s.cacheNext = (s.cacheNext + 1) % len(s.cache)
}

// trigger starts one background re-solve unless one is already running.
func (s *StrategyEngine) trigger(lay *coterie.Layout, avail nodeset.Set) {
	if !s.recomputing.CompareAndSwap(false, true) {
		return
	}
	epoch := avail.Clone()
	go func() {
		defer s.recomputing.Store(false)
		s.recompute(lay, epoch)
	}()
}

// recompute enumerates, solves and publishes one snapshot for the given
// epoch and returns it. lay must be the layout compiled for exactly that
// epoch (layouts are immutable, so reading it off-thread is safe). A
// failed solve publishes a snapshot without candidates, whose picks use
// the hint rotation.
func (s *StrategyEngine) recompute(lay *coterie.Layout, epoch nodeset.Set) *stratSnapshot {
	start := time.Now()
	snap := &stratSnapshot{epoch: epoch}
	defer func() {
		// Stamp before publishing, so no picker sees the new snapshot
		// with the old stamp and starts a redundant re-solve.
		s.lastSolve.Store(time.Now().UnixNano())
		s.snap.Store(snap)
		s.storeCache(snap)
	}()
	reads := lay.EnumerateReadQuorums(0)
	writes := lay.EnumerateWriteQuorums(0)
	if len(reads) == 0 || len(writes) == 0 {
		return snap
	}
	s.load.maybeRefresh()
	dist, err := coterie.Optimize(coterie.OptimizeInput{
		Reads:    reads,
		Writes:   writes,
		Members:  epoch.IDs(),
		ReadFrac: s.readFrac(),
		Capacity: s.capacity,
		Load:     s.loadFn,
	})
	if err != nil {
		return snap
	}
	snap.reads, snap.writes = reads, writes
	snap.rTable = coterie.NewAlias(dist.ReadWeights)
	snap.wTable = coterie.NewAlias(dist.WriteWeights)
	snap.rPicks = make([]*obs.Counter, len(reads))
	snap.wPicks = make([]*obs.Counter, len(writes))
	for k := range snap.rPicks {
		snap.rPicks[k] = s.metrics.rPickVec.At(reads[k].Len())
	}
	for k := range snap.wPicks {
		snap.wPicks[k] = s.metrics.wPickVec.At(writes[k].Len())
	}

	s.metrics.recomputes.Inc()
	s.metrics.recomputeNs.Record(uint64(time.Since(start).Nanoseconds()))
	s.metrics.entropy.At(0).Set(int64(snap.rTable.Entropy() * 1000))
	s.metrics.entropy.At(1).Set(int64(snap.wTable.Entropy() * 1000))
	if dist.Capacity > 0 && !math.IsInf(dist.Capacity, 0) {
		s.metrics.capacity.Set(int64(dist.Capacity * 1000))
	}
	return snap
}
