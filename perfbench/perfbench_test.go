package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"coterie/internal/core"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// TestMain lets the tcp workload spawn this test binary as a daemon, as
// the perfbench binary spawns itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "coteried" {
		if err := daemon.RunMain(os.Args[2:]); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func unitsOf(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

// TestMetricListsMatchBenchmarkFile pins perfbench's metric and workload
// lists to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchFile(t)
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		emitted  []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayerMetrics}} {
		units := unitsOf(c.emitted)
		if len(c.declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, perfbench emits %d", c.what, len(c.declared), len(units))
		}
		for _, d := range c.declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] declared, perfbench has unit %q (present %v)", c.what, d.Name, d.Unit, u, ok)
			}
		}
	}
	if len(bf.Workloads) == 0 {
		t.Error("BENCHMARK.json declares no workloads")
	}
	for _, w := range bf.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, traced,
// and checks that every declared metric comes out finite with its unit.
// End-to-end percentiles appear only once ten samples lie beyond them,
// which a short run may not reach; those are checked against that rule.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			rep, res, err := run(sp, 7, 500*time.Millisecond, true, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			for _, d := range perLayerMetrics {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s: got %+v (present %v)", d.name, m, ok)
				}
			}
			samples := map[string]int{"read": rep.Untraced.Reads, "write": rep.Untraced.Writes}
			for _, d := range endToEnd {
				v, ok := rep.Untraced.EndToEnd[d.name]
				if !ok {
					if n, pct := percentileSamples(d.name, samples); pct > 0 && float64(n)*(1-pct) < 10 {
						continue // too few samples for this percentile in a short run
					}
					t.Errorf("end-to-end %s missing", d.name)
					continue
				}
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end %s = %v", d.name, v)
				}
			}
		})
	}
}

// percentileSamples returns the sample count and quantile behind a
// latency percentile metric name, or a zero quantile for other metrics.
func percentileSamples(name string, samples map[string]int) (int, float64) {
	for kind, n := range samples {
		switch name {
		case kind + "_p50_us":
			return n, 0.5
		case kind + "_p90_us":
			return n, 0.9
		}
	}
	return 0, 0
}

// countingNet counts the one-way sends that reach the simulated network.
type countingNet struct {
	*transport.Network
	async atomic.Int64
}

func (n *countingNet) SendAsync(ctx context.Context, from nodeset.ID, targets nodeset.Set, req transport.Message) {
	n.async.Add(1)
	n.Network.SendAsync(ctx, from, targets, req)
}

// TestTracedNetKeepsOneWayPaths checks that the traced wrapper is a
// transport.AsyncSender and that a coordinator over it still commits
// one-way, so traced and untraced runs take the same protocol paths.
func TestTracedNetKeepsOneWayPaths(t *testing.T) {
	inner := &countingNet{Network: transport.NewNetwork()}
	tr := newTracer(1)
	tr.on.Store(true)
	var net transport.Net = &tracedNet{inner: inner, t: tr}
	if _, ok := net.(transport.AsyncSender); !ok {
		t.Fatal("tracedNet does not implement transport.AsyncSender")
	}
	members := nodeset.Range(0, 3)
	var coord *core.Coordinator
	for i := 0; i < 3; i++ {
		n := replica.NewNode(nodeset.ID(i), net, replica.Config{})
		defer n.Close()
		it, err := n.AddItem("x", members, make([]byte, 8))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			coord = core.NewCoordinator(it, net, members, core.Options{CallTimeout: time.Second})
		}
	}
	ctx, sp := tr.beginOp(context.Background(), "core", "write")
	if _, err := coord.Write(ctx, replica.Update{Offset: 0, Data: []byte("ab")}); err != nil {
		t.Fatal(err)
	}
	tr.endOp(sp, nil)
	if inner.async.Load() == 0 {
		t.Error("no one-way send reached the transport through the traced wrapper")
	}
	if tr.ops.Load() != 1 || tr.rounds.Load() == 0 || len(tr.serve[kindLock].v) == 0 {
		t.Errorf("trace missed the write: ops=%d rounds=%d lock serves=%d", tr.ops.Load(), tr.rounds.Load(), len(tr.serve[kindLock].v))
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(0, 25, ivs); got != 3+7+5 {
		t.Errorf("covered = %d, want 15", got)
	}
}

// TestSimOpResendsUntilDeadline checks that a sim client skips the node
// marked down, resends a failed operation, counts the resent attempts and
// gives up at the operation's deadline.
func TestSimOpResendsUntilDeadline(t *testing.T) {
	s, err := newSimSystem(spec{Items: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.down.Store(3)
	if got := s.enter(3); got != 4 || s.inflight[4].Load() != 1 {
		t.Fatalf("enter(3) with node 3 down = %d, in flight at 4 = %d", got, s.inflight[4].Load())
	}
	s.inflight[4].Add(-1)
	s.down.Store(-1)

	for i := 0; i < 5; i++ {
		s.net.Crash(nodeset.ID(i)) // no quorum is left
	}
	rng := clientRNG(1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	if err := s.op(ctx, rng, false, 0, randomUpdate(rng)); err == nil {
		t.Fatal("write without a quorum succeeded")
	}
	if s.retries().total() == 0 {
		t.Error("no resent attempt was counted")
	}
	for i := 0; i < 5; i++ {
		s.net.Restart(nodeset.ID(i))
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), opTimeout)
	defer cancel2()
	if err := s.op(ctx2, rng, true, 0, replica.Update{}); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if bad := s.checkHistories(); bad != 0 {
		t.Errorf("%d one-copy violations", bad)
	}
}
