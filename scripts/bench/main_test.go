package main

import (
	"testing"
	"time"
)

// gateRule is what a suite promises about one gate: its threshold, its
// comparison, and whether a miss exits 1 (fatal) or only warns.
type gateRule struct {
	name      string
	threshold float64
	cmp       string
	fatal     bool
}

// TestGatesPinned pins every suite's gates, full and smoke, so a change
// to a threshold, a comparison direction or a miss's consequence shows up
// as a test failure rather than as a quietly different benchmark.
func TestGatesPinned(t *testing.T) {
	want := map[string]map[bool][]gateRule{
		"obs": {false: {
			{"overhead-pct-p1", 5, "<=", false},
			{"overhead-pct-p4", 5, "<=", false},
		}},
		"batch": {false: {
			{"contended-speedup-p4", 1.5, ">=", false},
		}},
		"net": {false: {
			{"tcp-speedup-over-bench5", 3, ">=", false},
			{"scaling-min-step-ops", 0, ">=", false},
			{"churn-violations", 0, "<=", true},
		}},
		"shard": {
			false: {
				{"million-coverage", 1_000_000, ">=", true},
				{"million-violations", 0, "<=", true},
				{"shardscale-speedup", 1.8, ">=", true},
				{"hedge-read-p99-cut", 0.30, ">=", true},
			},
			true: {
				{"million-coverage", 2000, ">=", true},
				{"million-violations", 0, "<=", true},
				{"hedge-read-p99-cut", 0.30, ">=", true},
			},
		},
		"trace": {false: {
			{"plane-overhead-pct", 2, "<=", false},
			{"hedge-attribution", 1, ">=", false},
		}},
		"quorum": {
			false: {
				{"optimized-throughput", 1.15, ">=", false},
				{"optimized-throughput-read-p99-excess-us", 0, "<=", false},
				{"optimized-read-tail", 0.8, "<=", false},
			},
			true: {
				{"optimized-throughput", 1.15, ">=", true},
				{"optimized-throughput-read-p99-excess-us", 0, "<=", true},
				{"optimized-read-tail", 0.8, "<=", true},
			},
		},
	}
	if len(want) != len(suites) {
		t.Fatalf("%d suites, want %d", len(suites), len(want))
	}
	for name, modes := range want {
		for _, smoke := range []bool{false, true} {
			s, p, err := resolve(name, smoke, 0, 0)
			rules, ok := modes[smoke]
			if !ok {
				if err == nil {
					t.Errorf("%s: -smoke accepted, want no smoke variant", name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("resolve(%s, smoke=%v): %v", name, smoke, err)
			}
			gates := s.gates(p, cannedCells(s, p))
			if len(gates) != len(rules) {
				t.Errorf("%s smoke=%v: %d gates %v, want %d", name, smoke, len(gates), gates, len(rules))
				continue
			}
			for i, r := range rules {
				g := gates[i]
				if g.Name != r.name || g.Threshold != r.threshold || g.Cmp != r.cmp || g.Fatal != r.fatal {
					t.Errorf("%s smoke=%v gate %d = {%s %g %s fatal=%v}, want {%s %g %s fatal=%v}",
						name, smoke, i, g.Name, g.Threshold, g.Cmp, g.Fatal, r.name, r.threshold, r.cmp, r.fatal)
				}
			}
		}
	}
}

// cannedCells gives every cell of a suite the same canned loadgen result.
func cannedCells(s suite, p params) map[string]loadgenOut {
	out, err := parseLoadgen([]byte(cannedLoadgen))
	if err != nil {
		panic(err)
	}
	c := map[string]loadgenOut{}
	for _, spec := range s.cells(p) {
		c[spec.name] = out
	}
	return c
}

const cannedLoadgen = `{"net":"tcp","nodes":4,"gomaxprocs":2,"ops":6000,"ops_per_sec":2000,
"read_p50_us":300,"read_p99_us":900,"read_p999_us":2000,
"write_p50_us":500,"write_p99_us":1500,"write_p999_us":3000,
"failures":1,"onecopy_violations":0,"distinct_keys":2000,
"client":{"retries":0,"hedges":5,"hedge_wins":2,"hedge_canceled":3,"traces_sampled":7}}`

// TestReportCarriesStampAndGates builds a report from canned loadgen
// output, as a run does once its cells are measured.
func TestReportCarriesStampAndGates(t *testing.T) {
	s, p, err := resolve("shard", true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseLoadgen([]byte(cannedLoadgen))
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, spec := range s.cells(p) {
		cells = append(cells, cell{Name: spec.name, Args: spec.args, loadgenOut: out})
	}
	st := stamp{Commit: "abc123", GoVersion: "go1.x", NumCPU: 2}
	rep := buildReport(s, p, st, cells)
	if rep.Stamp != st {
		t.Errorf("stamp = %+v, want %+v", rep.Stamp, st)
	}
	if rep.Suite != "shard" || rep.Trials != 1 || rep.Duration != (2*time.Second).String() {
		t.Errorf("suite/trials/duration = %s/%d/%s, want shard/1/2s", rep.Suite, rep.Trials, rep.Duration)
	}
	if len(rep.Cells) != 3 || rep.Cells[0].GOMAXPROCS != 2 || rep.Cells[0].ReadP999us != 2000 {
		t.Errorf("cells = %+v, want million, hedge-off, hedge-on carrying the canned trial", rep.Cells)
	}
	if len(rep.Gates) != 3 {
		t.Fatalf("gates = %+v, want 3", rep.Gates)
	}
	// The canned trial covers the 2000-key smoke keyspace with no
	// violations, but equal hedge-off/on tails cut nothing.
	for _, g := range rep.Gates {
		if wantPass := g.Name != "hedge-read-p99-cut"; g.Pass != wantPass {
			t.Errorf("gate %s pass = %v (value %g), want %v", g.Name, g.Pass, g.Value, wantPass)
		}
	}
}
