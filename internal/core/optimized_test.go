package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// testEngine builds an optimized engine over n nodes whose background
// re-solve tick never fires during the test.
func testEngine(t *testing.T, n int, capacities map[nodeset.ID]float64) (*StrategyEngine, *coterie.Layout) {
	t.Helper()
	epoch := nodeset.Range(0, nodeset.ID(n))
	s := NewStrategyEngine(StrategyOptimized, transport.NewNetwork(), epoch, capacities, obs.New())
	s.interval = time.Hour
	return s, coterie.Compile(Options{}.withDefaults().Rule, epoch)
}

// TestOptimizedFirstPickSolves: the first pick that meets an unsolved
// epoch solves it synchronously and is served from the distribution; an
// epoch change is solved the same way by its own first pick.
func TestOptimizedFirstPickSolves(t *testing.T) {
	s, lay := testEngine(t, 9, nil)
	epoch := lay.Epoch()
	q, ok := s.pickRead(lay, epoch, 1)
	if !ok || !lay.IsReadQuorum(q) {
		t.Fatalf("first read pick %v ok=%v not a read quorum", q.IDs(), ok)
	}
	w, ok := s.pickWrite(lay, epoch, 2)
	if !ok || !lay.IsWriteQuorum(w) {
		t.Fatalf("write pick %v ok=%v not a write quorum", w.IDs(), ok)
	}
	if got := s.metrics.recomputes.Load(); got != 1 {
		t.Fatalf("recomputes = %d after the first picks, want 1", got)
	}
	// A different epoch (node 8 gone) is solved by its first pick.
	shrunk := epoch.Clone()
	shrunk.Remove(8)
	layShrunk := coterie.Compile(Options{}.withDefaults().Rule, shrunk)
	q, ok = s.pickRead(layShrunk, shrunk, 3)
	if !ok || !layShrunk.IsReadQuorum(q) || q.Contains(8) {
		t.Fatalf("shrunk-epoch pick %v ok=%v", q.IDs(), ok)
	}
	if got := s.metrics.recomputes.Load(); got != 2 {
		t.Fatalf("recomputes = %d after the epoch change, want 2", got)
	}
}

// TestOptimizedFailedSolveUsesHint: an epoch with no candidate quorums
// cannot be solved. Its picks must answer as the hint rotation does, and
// the failure is cached rather than re-solved on every pick.
func TestOptimizedFailedSolveUsesHint(t *testing.T) {
	s, _ := testEngine(t, 9, nil)
	var empty nodeset.Set
	lay := coterie.Compile(Options{}.withDefaults().Rule, empty)
	for h := 0; h < 3; h++ {
		got, gotOK := s.pickRead(lay, empty, h)
		want, wantOK := lay.ReadQuorum(empty, h)
		if gotOK != wantOK || !got.Equal(want) {
			t.Fatalf("h=%d: pick %v/%v, hint rotation %v/%v", h, got.IDs(), gotOK, want.IDs(), wantOK)
		}
	}
	failed := s.cached(empty)
	if failed == nil {
		t.Fatal("failed solve was not cached")
	}
	s.pickWrite(lay, empty, 4)
	if s.cached(empty) != failed || s.metrics.recomputes.Load() != 0 {
		t.Fatal("failed epoch re-solved on a later pick")
	}
}

// TestOptimizedPicksFollowWeights: with a weak node the engine's sampled
// picks must visit it much less often than its peers.
func TestOptimizedPicksFollowWeights(t *testing.T) {
	weak := nodeset.ID(4)
	s, lay := testEngine(t, 9, map[nodeset.ID]float64{weak: 0.1})
	epoch := lay.Epoch()
	visits := make(map[nodeset.ID]int)
	const picks = 20000
	for i := 0; i < picks; i++ {
		q, ok := s.pickRead(lay, epoch, hint(replica.OpID{Coordinator: 3, Seq: uint64(i)}))
		if !ok {
			t.Fatal("pick declined")
		}
		for _, id := range q.IDs() {
			visits[id]++
		}
	}
	var peerMax int
	for id, v := range visits {
		if id != weak && v > peerMax {
			peerMax = v
		}
	}
	if visits[weak] > peerMax/2 {
		t.Fatalf("weak node visited %d times vs busiest peer %d: distribution not applied", visits[weak], peerMax)
	}
	// Pick counters must account for every draw.
	var total uint64
	for _, v := range s.metrics.rPickVec.Values() {
		total += v
	}
	if total != picks {
		t.Fatalf("read pick counters sum to %d, want %d", total, picks)
	}
	// Configured capacities are published per node, unlisted ones at 1.0.
	if got := s.metrics.nodeCap.Values(); len(got) < 9 || got[weak] != 100 || got[0] != 1000 {
		t.Fatalf("core_node_capacity_milli = %v, want node %d at 100 and the rest at 1000", got, weak)
	}
}

// TestOptimizedEpochCacheServesMixedEpochs: items reconfigure
// independently, and a sharded daemon hosts shards with different replica
// sets, so many epochs select at once. Each must keep serving from its own
// cached distribution — the interleaved picks must not ping-pong the
// snapshot into invalidity or demand a fresh solve per mismatch
// (background re-solves are rate-limited to one per interval, an hour
// here).
func TestOptimizedEpochCacheServesMixedEpochs(t *testing.T) {
	s, layFull := testEngine(t, 9, nil)
	lays := []*coterie.Layout{layFull}
	for id := nodeset.ID(0); id < 9; id++ {
		shrunk := layFull.Epoch().Clone()
		shrunk.Remove(id)
		lays = append(lays, coterie.Compile(Options{}.withDefaults().Rule, shrunk))
	}
	for _, lay := range lays {
		s.pickRead(lay, lay.Epoch(), 0)
	}
	solves := s.metrics.recomputes.Load()
	for i := 0; i < 100; i++ {
		for k, lay := range lays {
			h := hint(replica.OpID{Coordinator: nodeset.ID(k), Seq: uint64(i)})
			q, ok := s.pickRead(lay, lay.Epoch(), h)
			if !ok || !lay.IsReadQuorum(q) {
				t.Fatalf("epoch %d read pick i=%d ok=%v q=%v", k, i, ok, q.IDs())
			}
			w, ok := s.pickWrite(lay, lay.Epoch(), h)
			if !ok || !lay.IsWriteQuorum(w) {
				t.Fatalf("epoch %d write pick i=%d ok=%v q=%v", k, i, ok, w.IDs())
			}
		}
	}
	if got := s.metrics.recomputes.Load(); got != solves {
		t.Fatalf("mixed-epoch picks ran %d extra solves", got-solves)
	}
}

// TestOptimizedPickAllocs gates the weighted-pick hot path at zero heap
// allocations (wired into `make check-allocs`).
func TestOptimizedPickAllocs(t *testing.T) {
	s, lay := testEngine(t, 9, nil)
	epoch := lay.Epoch()
	s.pickRead(lay, epoch, 0) // solve before measuring
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		q, ok := s.pickRead(lay, epoch, sink)
		if ok {
			sink += q.Len()
		}
		q, ok = s.pickWrite(lay, epoch, sink)
		if ok {
			sink += q.Len()
		}
	})
	if allocs != 0 {
		t.Fatalf("weighted pick allocates %v times per run, want 0", allocs)
	}
}

// TestOptimizedStrategyCluster runs a full cluster under the optimized
// strategy: every coordinator shares the one engine, operations land on
// the solved distribution from the first one on, and the strategy
// metrics appear.
func TestOptimizedStrategyCluster(t *testing.T) {
	t.Run(StrategyOptimized.String(), func(t *testing.T) {
		opts := fastOptions()
		opts.Strategy = StrategyOptimized
		opts.Obs = obs.New()
		c, err := NewCluster(9, "item", make([]byte, 16), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if c.Coordinator(0).strat == nil || c.Coordinator(0).strat != c.Coordinator(8).strat {
			t.Fatal("coordinators do not share one strategy engine")
		}
		for i := 0; i < 5; i++ {
			mustWrite(t, c, nodeset.ID(i), replica.Update{Offset: i, Data: []byte{byte('a' + i)}})
		}
		if c.Coordinator(0).strat.snap.Load() == nil {
			t.Fatal("no distribution snapshot published by the first writes")
		}
		for i := 0; i < 20; i++ {
			mustWrite(t, c, nodeset.ID(i%9), replica.Update{Offset: 5, Data: []byte{byte('A' + i)}})
			v, _ := mustRead(t, c, nodeset.ID((i+3)%9))
			if string(v[:5]) != "abcde" {
				t.Fatalf("read %q", v[:6])
			}
		}
		snap := opts.Obs.Snapshot()
		recomputes := false
		for _, c := range snap.Counters {
			if c.Name == "core_strategy_recomputes_total" && c.Value > 0 {
				recomputes = true
			}
		}
		if !recomputes {
			t.Error("counter core_strategy_recomputes_total missing or zero")
		}
		foundCap, foundEntropy := false, false
		for _, gv := range snap.GaugeVecs {
			switch gv.Name {
			case "core_node_capacity_milli":
				foundCap = true
				if len(gv.Values) < 9 || gv.Values[4] != 1000 {
					t.Errorf("capacity gauge vec %v, want homogeneous 1000", gv.Values)
				}
			case "core_strategy_entropy_milli":
				foundEntropy = true
			}
		}
		if !foundCap {
			t.Error("core_node_capacity_milli missing from snapshot")
		}
		if !foundEntropy {
			t.Error("core_strategy_entropy_milli missing from snapshot")
		}
	})
}

// pickTotals sums the optimized engine's read and write pick counters.
func pickTotals(reg *obs.Registry) (reads, writes uint64) {
	for _, v := range reg.CounterVec("core_strategy_read_pick_total").Values() {
		reads += v
	}
	for _, v := range reg.CounterVec("core_strategy_write_pick_total").Values() {
		writes += v
	}
	return reads, writes
}

// TestOptimizedFirstOpUsesDistribution: the first operation of a fresh
// cluster, and the first after an epoch change, must be served from the
// solved distribution — not by a fallback picker while a solve is
// pending — so each one advances the pick counters.
func TestOptimizedFirstOpUsesDistribution(t *testing.T) {
	opts := fastOptions()
	opts.Strategy = StrategyOptimized
	opts.Obs = obs.New()
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	step := func(when string) {
		t.Helper()
		r0, w0 := pickTotals(opts.Obs)
		mustWrite(t, c, 0, replica.Update{Offset: 0, Data: []byte("x")})
		if _, w := pickTotals(opts.Obs); w <= w0 {
			t.Fatalf("%s: write did not pick from the distribution (write picks %d -> %d)", when, w0, w)
		}
		mustRead(t, c, 1)
		if r, _ := pickTotals(opts.Obs); r <= r0 {
			t.Fatalf("%s: read did not pick from the distribution (read picks %d -> %d)", when, r0, r)
		}
	}
	step("fresh cluster")

	c.Crash(8)
	res, err := c.CheckEpoch(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed {
		t.Fatalf("epoch check after a crash did not change the epoch: %+v", res)
	}
	step("after the epoch change")
}

// TestOptimizedConcurrentFirstSolve: coordinators sharing one engine that
// meet an unsolved epoch at once must share a single solve.
func TestOptimizedConcurrentFirstSolve(t *testing.T) {
	opts := fastOptions()
	opts.Strategy = StrategyOptimized
	opts.Obs = obs.New()
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	engine := c.Coordinator(0).strat
	engine.interval = time.Hour // only first-pick solves may run

	start := make(chan struct{})
	var wg sync.WaitGroup
	for id := nodeset.ID(0); id < 9; id++ {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(coord *Coordinator) {
				defer wg.Done()
				<-start
				if _, _, err := coord.Read(ctxT(t)); err != nil {
					t.Error(err)
				}
			}(c.Coordinator(id))
		}
	}
	close(start)
	wg.Wait()
	if got := engine.metrics.recomputes.Load(); got != 1 {
		t.Fatalf("core_strategy_recomputes_total = %d after concurrent first picks, want 1", got)
	}
}

// TestParseStrategyRoundTrip pins the flag vocabulary.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []QuorumStrategy{StrategyHint, StrategyLoadAware, StrategyOptimized} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	// Both names of the retired read-skewed mode are unknown strategies
	// like any other, and the error names the valid ones.
	for _, bad := range []string{"bogus", "read-dominant", "readdom"} {
		_, err := ParseStrategy(bad)
		if err == nil {
			t.Errorf("ParseStrategy(%q) accepted", bad)
			continue
		}
		for _, valid := range []string{"hint", "load", "optimized"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseStrategy(%q) error %q does not name %q", bad, err, valid)
			}
		}
	}
	if got, err := ParseStrategy(""); err != nil || got != StrategyHint {
		t.Errorf("ParseStrategy(\"\") = %v, %v, want hint", got, err)
	}
}
