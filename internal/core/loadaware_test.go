package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
)

// TestLoadTrackerEWMA drives refreshLocked with a synthetic sampler and
// controlled timestamps and checks the EWMA arithmetic, the gauge
// publication, and the counter-regression clamp.
func TestLoadTrackerEWMA(t *testing.T) {
	served := map[nodeset.ID]uint64{}
	reg := obs.New()
	tr := newLoadTracker(nodeset.New(0, 1, 2), func(id nodeset.ID) uint64 { return served[id] }, reg)
	base := tr.prevT
	sec := int64(time.Second)

	// 100 requests over one second: rate 100/s, EWMA = 0.3*100 = 30.
	served[1] = 100
	tr.mu.Lock()
	tr.refreshLocked(base + sec)
	tr.mu.Unlock()
	if got := tr.Load(1); got != 30 {
		t.Fatalf("after first refresh Load(1) = %v, want 30", got)
	}
	if got := tr.Load(0); got != 0 {
		t.Fatalf("idle node Load(0) = %v, want 0", got)
	}

	// No new traffic: the estimate decays, 0.7*30 = 21.
	tr.mu.Lock()
	tr.refreshLocked(base + 2*sec)
	tr.mu.Unlock()
	if got := tr.Load(1); math.Abs(got-21) > 1e-9 {
		t.Fatalf("after decay Load(1) = %v, want 21", got)
	}

	// A counter regression (transport ResetStats) clamps the delta to
	// zero instead of wrapping: 0.7*21 = 14.7.
	served[1] = 5
	tr.mu.Lock()
	tr.refreshLocked(base + 3*sec)
	tr.mu.Unlock()
	if got := tr.Load(1); math.Abs(got-14.7) > 1e-9 {
		t.Fatalf("after regression Load(1) = %v, want 14.7", got)
	}

	// Estimates are published to the gauge vector, truncated to int64.
	if got := reg.GaugeVec("core_endpoint_load_ewma").At(1).Load(); got != 14 {
		t.Fatalf("gauge for node 1 = %d, want 14", got)
	}

	// Zero-dt refreshes are ignored rather than dividing by zero.
	tr.mu.Lock()
	tr.refreshLocked(base + 3*sec)
	tr.mu.Unlock()
	if got := tr.Load(1); math.Abs(got-14.7) > 1e-9 {
		t.Fatalf("zero-dt refresh changed Load(1) to %v", got)
	}
}

// TestLoadTrackerUntrackedAndNil: untracked IDs and the nil tracker are
// inert zeros, matching the coterie contract that load 0 means "no
// signal".
func TestLoadTrackerUntrackedAndNil(t *testing.T) {
	tr := newLoadTracker(nodeset.New(0, 2), func(nodeset.ID) uint64 { return 0 }, nil)
	if got := tr.Load(1); got != 0 {
		t.Fatalf("untracked in-range ID: %v", got)
	}
	if got := tr.Load(99); got != 0 {
		t.Fatalf("out-of-range ID: %v", got)
	}
	var nilTr *LoadTracker
	if got := nilTr.Load(0); got != 0 {
		t.Fatalf("nil tracker: %v", got)
	}
	nilTr.maybeRefresh() // must not panic
	nilTr.Refresh()      // must not panic
}

// TestLoadAwareStrategyCluster: a cluster running StrategyLoadAware must
// behave exactly like the hint strategy functionally — writes and reads
// land, versions advance — while feeding real served-counter samples
// through the tracker into the gauge vector.
func TestLoadAwareStrategyCluster(t *testing.T) {
	opts := fastOptions()
	opts.Strategy = StrategyLoadAware
	opts.Obs = obs.New()
	c, err := NewCluster(9, "item", make([]byte, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	for i := 0; i < 5; i++ {
		mustWrite(t, c, nodeset.ID(i), replica.Update{Offset: i, Data: []byte{byte('a' + i)}})
	}
	v, ver := mustRead(t, c, 7)
	if string(v[:5]) != "abcde" || ver != 5 {
		t.Fatalf("read %q@%d", v, ver)
	}

	// The cluster built one shared tracker; force a refresh and confirm
	// the gauge vector shows up in a snapshot with a tracked cell.
	if c.opts.Engine == nil || c.opts.Engine.load == nil {
		t.Fatal("cluster did not build a LoadTracker for StrategyLoadAware")
	}
	c.opts.Engine.load.Refresh()
	found := false
	for _, gv := range opts.Obs.Snapshot().GaugeVecs {
		if gv.Name == "core_endpoint_load_ewma" {
			found = true
			if len(gv.Values) < 9 {
				t.Fatalf("gauge vector has %d cells, want >= 9", len(gv.Values))
			}
		}
	}
	if !found {
		t.Fatal("core_endpoint_load_ewma missing from snapshot")
	}
}

// TestLoadAwareUniformTieBreak: the greedy argmin's tie-break contract —
// under a uniform load signal every loaded pick must equal the splitmix64
// hint path's pick, for every structure with a load-aware form. The
// assertion runs from concurrent goroutines over one shared tracker so
// `go test -race` also proves the selection path is data-race-free.
func TestLoadAwareUniformTieBreak(t *testing.T) {
	members := nodeset.Range(0, 9)
	// A constant sampler never produces a delta, so every EWMA stays 0 —
	// the all-equal signal the tie-break must reduce under.
	tr := newLoadTracker(members, func(nodeset.ID) uint64 { return 7 }, obs.New())
	tr.Refresh()

	avails := []nodeset.Set{
		members,
		func() nodeset.Set { s := members.Clone(); s.Remove(4); return s }(),
		func() nodeset.Set { s := members.Clone(); s.Remove(0); s.Remove(8); return s }(),
	}
	rules := []coterie.Rule{coterie.Grid{}, coterie.Grid{Ratio: 2}, coterie.Majority{}, coterie.ROWA{}}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, rule := range rules {
				lay := coterie.Compile(rule, members)
				for seq := 0; seq < 400; seq++ {
					h := hint(replica.OpID{Coordinator: nodeset.ID(g), Seq: uint64(seq)})
					for _, avail := range avails {
						got, gotOK := lay.ReadQuorumLoaded(avail, tr.Load, h)
						want, wantOK := lay.ReadQuorum(avail, h)
						if gotOK != wantOK || !got.Equal(want) {
							t.Errorf("%s read h=%d avail=%v: loaded %v != hint %v", rule.Name(), h, avail.IDs(), got.IDs(), want.IDs())
							return
						}
						got, gotOK = lay.WriteQuorumLoaded(avail, tr.Load, h)
						want, wantOK = lay.WriteQuorum(avail, h)
						if gotOK != wantOK || !got.Equal(want) {
							t.Errorf("%s write h=%d avail=%v: loaded %v != hint %v", rule.Name(), h, avail.IDs(), got.IDs(), want.IDs())
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoadTrackerRestartClamp models a daemon restart: the transport's
// served counters restart from zero, which must read as a pause in
// traffic (clamped delta), never as a negative or wrapped-around rate,
// and the estimate must track the new counter baseline afterwards.
func TestLoadTrackerRestartClamp(t *testing.T) {
	served := uint64(0)
	tr := newLoadTracker(nodeset.New(0), func(nodeset.ID) uint64 { return served }, obs.New())
	base := tr.prevT
	sec := int64(time.Second)

	// Steady state before the restart: 1000 req/s.
	served = 1000
	tr.mu.Lock()
	tr.refreshLocked(base + sec)
	tr.mu.Unlock()
	if got := tr.Load(0); got != 300 { // 0.3 * 1000
		t.Fatalf("pre-restart Load = %v, want 300", got)
	}

	// Restart: the counter resets to a small value (a few requests served
	// by the fresh process). An unsigned subtraction would wrap to ~2^64.
	served = 3
	tr.mu.Lock()
	tr.refreshLocked(base + 2*sec)
	tr.mu.Unlock()
	got := tr.Load(0)
	if got < 0 || got > 300 {
		t.Fatalf("post-restart Load = %v, want decayed value in [0, 300]", got)
	}
	if math.Abs(got-210) > 1e-9 { // clamp to zero delta: 0.7 * 300
		t.Fatalf("post-restart Load = %v, want exactly 210 (clamped decay)", got)
	}

	// The tracker rebased on the reset counter: new traffic from the fresh
	// process registers at its true rate, not offset by the old baseline.
	served = 503 // +500 in one second
	tr.mu.Lock()
	tr.refreshLocked(base + 3*sec)
	tr.mu.Unlock()
	if got := tr.Load(0); math.Abs(got-(0.3*500+0.7*210)) > 1e-9 {
		t.Fatalf("recovery Load = %v, want %v", got, 0.3*500+0.7*210)
	}
}
