package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"coterie/internal/coterie"
	"coterie/internal/markov"
	"coterie/internal/sim"
)

// suite is one row of the benchmark table.
type suite struct {
	name     string
	duration time.Duration // default per-trial duration
	trials   int           // default trials per cell
	smoke    *params       // the -smoke defaults; nil: no smoke variant
	cells    func(p params) []cellSpec
	gates    func(p params, c map[string]loadgenOut) []gate
	// availability, when set, adds the predicted-vs-measured availability
	// table to the report.
	availability func(p params) ([]availCell, error)
}

// cellSpec is one loadgen configuration of a suite.
type cellSpec struct {
	name     string
	args     []string      // loadgen arguments, without -duration
	procs    int           // the child's GOMAXPROCS; 0 inherits
	trials   int           // 0: the invocation's trial count
	duration time.Duration // 0: the invocation's duration
}

var suites = []suite{
	// obs: the observability overhead — the full registry and flight
	// recorder against obs.Nop. The disjoint workload pins each worker to
	// its own item, isolating instrumentation cost from lock conflicts.
	// Budget: 5% (DESIGN.md §7).
	{
		name: "obs", duration: 2 * time.Second, trials: 3,
		cells: func(params) []cellSpec {
			var cs []cellSpec
			for _, procs := range []int{1, 4} {
				for _, on := range []bool{false, true} {
					cs = append(cs, cellSpec{
						name:  fmt.Sprintf("p%d/%s", procs, onOff(on, "obs", "nop")),
						args:  []string{"-nodes", "9", "-items", "8", "-workers", "4", "-disjoint", "-obs=" + strconv.FormatBool(on)},
						procs: procs,
					})
				}
			}
			return cs
		},
		gates: func(_ params, c map[string]loadgenOut) []gate {
			var gs []gate
			for _, procs := range []int{1, 4} {
				nop, lit := c[fmt.Sprintf("p%d/nop", procs)].OpsPerSec, c[fmt.Sprintf("p%d/obs", procs)].OpsPerSec
				gs = append(gs, check(fmt.Sprintf("overhead-pct-p%d", procs), overheadPct(nop, lit), "<=", 5, false))
			}
			return gs
		},
	},

	// batch: the group-commit write pipeline, off against on. contended is
	// 16 write-only workers on ONE item with coordinator affinity — the
	// regime group commit exists for; disjoint has no lock contention, so
	// batching can only add combiner overhead (DESIGN.md §8).
	{
		name: "batch", duration: 2 * time.Second, trials: 3,
		cells: func(params) []cellSpec {
			workloads := [][]string{
				{"-nodes", "9", "-items", "1", "-workers", "16", "-read-frac", "0", "-affinity"},
				{"-nodes", "9", "-items", "8", "-workers", "8", "-disjoint", "-read-frac", "0.5"},
			}
			var cs []cellSpec
			for i, w := range []string{"contended", "disjoint"} {
				for _, procs := range []int{1, 4} {
					for _, on := range []bool{false, true} {
						cs = append(cs, cellSpec{
							name:  fmt.Sprintf("%s/p%d/%s", w, procs, onOff(on, "on", "off")),
							args:  append([]string{"-batch=" + strconv.FormatBool(on)}, workloads[i]...),
							procs: procs,
						})
					}
				}
			}
			return cs
		},
		gates: func(_ params, c map[string]loadgenOut) []gate {
			speedup := ratio(c["contended/p4/on"].OpsPerSec, c["contended/p4/off"].OpsPerSec)
			return []gate{check("contended-speedup-p4", speedup, ">=", 1.5, false)}
		},
	},

	// net: the networked data plane (DESIGN.md §10). gate/tcp is BENCH_5's
	// workload at GOMAXPROCS=1; gate/sim rides along for the sim-vs-TCP
	// gap. The scaling points offer 8 workers per requested core at
	// GOMAXPROCS=min(cores, NumCPU) — weak scaling on a multi-core machine,
	// pipelining-depth scaling where it has fewer CPUs (oversubscribing
	// threads past physical cores would measure scheduler thrash). churn
	// kills and respawns daemons and is judged by the one-copy checker.
	{
		name: "net", duration: 3 * time.Second, trials: 3,
		cells: func(p params) []cellSpec {
			cs := []cellSpec{
				{name: "gate/tcp", args: netArgs(8, "-net", "tcp"), procs: 1},
				{name: "gate/sim", args: netArgs(8), procs: 1},
			}
			for _, cores := range []int{1, 2, 4} {
				cs = append(cs, cellSpec{
					name:  fmt.Sprintf("scaling/%d", cores),
					args:  netArgs(8*cores, "-net", "tcp"),
					procs: min(cores, runtime.NumCPU()),
				})
			}
			return append(cs, cellSpec{
				name: "churn", args: netArgs(8, "-net", "tcp", "-churn", "500ms"), procs: 1,
				trials: 1, duration: max(p.duration, 5*time.Second),
			})
		},
		gates: func(_ params, c map[string]loadgenOut) []gate {
			s1, s2, s4 := c["scaling/1"].OpsPerSec, c["scaling/2"].OpsPerSec, c["scaling/4"].OpsPerSec
			return []gate{
				check("tcp-speedup-over-bench5", c["gate/tcp"].OpsPerSec/bench5Baseline("BENCH_5.json"), ">=", 3, false),
				check("scaling-min-step-ops", min(s2-s1, s4-s2), ">=", 0, false),
				check("churn-violations", c["churn"].violations(), "<=", 0, true),
			}
		},
	},

	// shard: the sharded data plane (DESIGN.md §11). million is a
	// deterministic sweep of the whole keyspace over 4 daemons with
	// stride-sampled one-copy checking, run once (its gates are coverage
	// and safety, not speed). unsharded/sharded put the same 4 nodes in one
	// rf=4 coterie or four rf=2 coteries; smoke runs skip them, since the
	// separation needs a measured run, not a 2 s spin-up. hedge-off/on run
	// 95% reads with daemon 0 serving reads 10 ms slow.
	{
		name: "shard", duration: 5 * time.Second, trials: 2,
		smoke: &params{duration: 2 * time.Second, trials: 1},
		cells: func(p params) []cellSpec {
			cs := []cellSpec{{name: "million", args: append(shardArgs(32, 2, shardKeys(p), 8, "0.5", 64, false), "-sweep"), trials: 1}}
			if !p.smoke {
				cs = append(cs,
					cellSpec{name: "unsharded", args: shardArgs(1, 4, 10000, 8, "0.5", 1, false)},
					cellSpec{name: "sharded", args: shardArgs(4, 2, 10000, 8, "0.5", 1, false)})
			}
			for _, hedge := range []bool{false, true} {
				cs = append(cs, cellSpec{
					name: "hedge-" + onOff(hedge, "on", "off"),
					args: append(shardArgs(8, 2, 5000, 6, "0.95", 1, hedge), "-slow-node", "0", "-slow-read", "10ms"),
				})
			}
			return cs
		},
		gates: func(p params, c map[string]loadgenOut) []gate {
			million := c["million"]
			gs := []gate{
				check("million-coverage", float64(million.DistinctKeys), ">=", float64(shardKeys(p)), true),
				check("million-violations", million.violations(), "<=", 0, true),
			}
			if !p.smoke {
				gs = append(gs, check("shardscale-speedup", ratio(c["sharded"].OpsPerSec, c["unsharded"].OpsPerSec), ">=", 1.8, true))
			}
			off, on := c["hedge-off"].ReadP99us, c["hedge-on"].ReadP99us
			cut := 0.0
			if off > 0 {
				cut = 1 - float64(on)/float64(off)
			}
			return append(gs, check("hedge-read-p99-cut", cut, ">=", 0.30, true))
		},
	},

	// trace: the observability plane's cost on the networked data path
	// (DESIGN.md §12). plane runs per-daemon admin endpoints, /healthz
	// readiness, 1-in-16 trace sampling and the post-run cluster scrape;
	// dark runs none of it. hedge is one hedged-reads run against a slow
	// daemon with the plane on, whose hedge counters must be non-zero.
	{
		name: "trace", duration: 3 * time.Second, trials: 3,
		cells: func(params) []cellSpec {
			return []cellSpec{
				{name: "dark", args: traceArgs(false)},
				{name: "plane", args: traceArgs(true)},
				{name: "hedge", args: append(traceArgs(true), "-hedge", "-read-frac", "0.95", "-slow-node", "0", "-slow-read", "10ms"), trials: 1},
			}
		},
		gates: func(_ params, c map[string]loadgenOut) []gate {
			var fired, resolved uint64
			if h := c["hedge"].Client; h != nil {
				fired, resolved = h.Hedges, h.HedgeWins+h.HedgeCanceled
			}
			return []gate{
				check("plane-overhead-pct", overheadPct(c["dark"].OpsPerSec, c["plane"].OpsPerSec), "<=", 2, false),
				check("hedge-attribution", float64(min(fired, resolved)), ">=", 1, false),
			}
		},
	},

	// quorum: the quorum strategies over one strategy × scenario matrix on
	// the sim plane at GOMAXPROCS=4 (DESIGN.md §13), plus the
	// predicted-vs-measured availability table at the paper's Table 1
	// operating point. 9 nodes, 64 items and 8 workers keep item-lock
	// collisions rare, so the matrix measures quorum routing. slow and
	// read95 have node 4 serving every message 10 ms late, declared to the
	// optimized solver at capacity 0.1. Smoke runs only the gated cells.
	{
		name: "quorum", duration: 3 * time.Second, trials: 3,
		smoke: &params{duration: 3 * time.Second, trials: 2},
		cells: func(p params) []cellSpec {
			scenarios, strategies := quorumScenarios, []string{"hint", "load", "optimized"}
			if p.smoke {
				scenarios, strategies = scenarios[2:], strategies[1:]
			}
			var cs []cellSpec
			for _, sc := range scenarios {
				for _, strategy := range strategies {
					args := append([]string{"-nodes", "9", "-items", "64", "-workers", "8", "-seed", "1", "-strategy", strategy}, sc.args...)
					if sc.slow {
						args = append(args, "-slow-node", "4", "-slow-read", "10ms")
						if strategy == "optimized" {
							// Only the optimized solver reads capacities;
							// loadgen rejects -capacity elsewhere.
							args = append(args, "-capacity", "4=0.1")
						}
					}
					cs = append(cs, cellSpec{name: sc.name + "/" + strategy, args: args, procs: 4})
				}
			}
			return cs
		},
		gates: func(p params, c map[string]loadgenOut) []gate {
			slowOpt, slowLoad := c["slow/optimized"], c["slow/load"]
			rdOpt, rdLoad := c["read95/optimized"], c["read95/load"]
			tail := check("optimized-read-tail", ratio(float64(rdOpt.ReadP99us), float64(rdLoad.ReadP99us)), "<=", 0.8, p.smoke)
			tail.Pass = tail.Pass && tail.Value > 0 // zero: a cell measured no read tail
			return []gate{
				check("optimized-throughput", ratio(slowOpt.OpsPerSec, slowLoad.OpsPerSec), ">=", 1.15, p.smoke),
				check("optimized-throughput-read-p99-excess-us", float64(slowOpt.ReadP99us-slowLoad.ReadP99us), "<=", 0, p.smoke),
				tail,
			}
		},
		availability: func(p params) ([]availCell, error) {
			horizon := 20000.0
			if p.smoke {
				horizon = 2000
			}
			return availability(horizon)
		},
	},
}

var quorumScenarios = []struct {
	name string
	args []string
	slow bool
}{
	{name: "uniform", args: []string{"-read-frac", "0.5"}},
	{name: "zipf", args: []string{"-read-frac", "0.5", "-zipf-items"}},
	{name: "slow", args: []string{"-read-frac", "0.9"}, slow: true},
	{name: "read95", args: []string{"-read-frac", "0.95"}, slow: true},
}

func onOff(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// overheadPct is how much slower lit runs than dark, in percent of dark
// (positive when the instrumentation costs throughput).
func overheadPct(dark, lit float64) float64 {
	if dark <= 0 {
		return 0
	}
	return (dark - lit) / dark * 100
}

// netArgs is the net suite's workload: 3 nodes, 50/50 mix, each of n
// workers on its own item.
func netArgs(n int, extra ...string) []string {
	w := strconv.Itoa(n)
	return append([]string{"-nodes", "3", "-items", w, "-workers", w, "-disjoint", "-read-frac", "0.5"}, extra...)
}

func shardKeys(p params) int {
	if p.smoke {
		return 2000
	}
	return 1_000_000
}

// shardArgs is the shard suite's workload: 4 daemons with group commit,
// Zipfian keys over keys items of 32 bytes.
func shardArgs(shards, rf, keys, workers int, readFrac string, checkStride int, hedge bool) []string {
	return []string{"-net", "tcp", "-batch", "-nodes", "4",
		"-shards", strconv.Itoa(shards), "-rf", strconv.Itoa(rf),
		"-items", strconv.Itoa(keys), "-zipf-items", "-workers", strconv.Itoa(workers),
		"-read-frac", readFrac, "-item-size", "32",
		"-check-stride", strconv.Itoa(checkStride), "-hedge=" + strconv.FormatBool(hedge)}
}

// traceArgs is the trace suite's workload: 4 daemons, 8 shards of rf 3,
// Zipfian keys, with the observability plane on or dark.
func traceArgs(plane bool) []string {
	sample := "0"
	if plane {
		sample = "16"
	}
	return []string{"-net", "tcp", "-batch", "-shards", "8", "-nodes", "4", "-rf", "3",
		"-workers", "8", "-items", "2000", "-zipf-items", "-read-frac", "0.5", "-item-size", "32",
		"-admin=" + strconv.FormatBool(plane), "-trace-sample", sample}
}

// bench5PipelinedG1 is BENCH_5's tcp-pipelined GOMAXPROCS=1 throughput,
// the net gate's baseline when BENCH_5.json is not on disk.
const bench5PipelinedG1 = 4058.5202269985543

// bench5Baseline reads the tcp-pipelined GOMAXPROCS=1 throughput out of a
// BENCH_5.json report, falling back to the recorded constant.
func bench5Baseline(path string) float64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return bench5PipelinedG1
	}
	var rep struct {
		Speedups []struct {
			GOMAXPROCS int     `json:"gomaxprocs"`
			PipedOps   float64 `json:"tcp_pipelined_ops_per_sec"`
		} `json:"speedups"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return bench5PipelinedG1
	}
	for _, sp := range rep.Speedups {
		if sp.GOMAXPROCS == 1 && sp.PipedOps > 0 {
			return sp.PipedOps
		}
	}
	return bench5PipelinedG1
}

// availCell pairs predicted (site-model enumeration) and measured
// (discrete-event simulation) availability for one rule × strategy.
type availCell struct {
	Rule                    string  `json:"rule"`
	Strategy                string  `json:"strategy"`
	PredictedRead           float64 `json:"predicted_read"`
	PredictedWrite          float64 `json:"predicted_write"`
	PredictedCandidateRead  float64 `json:"predicted_candidate_read"`
	PredictedCandidateWrite float64 `json:"predicted_candidate_write"`
	MeasuredRead            float64 `json:"measured_read"`
	MeasuredWrite           float64 `json:"measured_write"`
	MeasuredCandidateRead   float64 `json:"measured_candidate_read,omitempty"`
	MeasuredCandidateWrite  float64 `json:"measured_candidate_write,omitempty"`
	Fallbacks               int     `json:"fallbacks,omitempty"`
}

// availability computes the predicted-vs-measured matrix over the
// grid/tree/majority rules at the paper's Table 1 operating point
// (lambda=1, mu=19, p=0.95). Candidate numbers are the optimized
// strategy's no-fallback (distribution-only) availability.
func availability(horizon float64) ([]availCell, error) {
	params := markov.PaperTable1Params()
	p := params.P()
	rules := []markov.NamedRule{
		{Name: "grid", Rule: coterie.Grid{}},
		{Name: "tree", Rule: coterie.Hierarchical{}},
		{Name: "majority", Rule: coterie.Majority{}},
	}
	const n = 9
	var cells []availCell
	for _, nr := range rules {
		for _, s := range []string{"hint", "load", "optimized"} {
			pred, err := markov.StrategyAvailability(nr.Rule, n, p, s)
			if err != nil {
				return nil, err
			}
			simStrategy := ""
			if markov.StrategyWeighted(s) {
				simStrategy = s
			}
			res, err := sim.Run(sim.Config{
				N: n, Lambda: params.Lambda, Mu: params.Mu,
				Model: sim.ModelProtocol, Rule: nr.Rule,
				Strategy: simStrategy,
				Horizon:  horizon, Seed: 9,
			})
			if err != nil {
				return nil, err
			}
			cell := availCell{
				Rule: nr.Name, Strategy: s,
				PredictedRead:           pred.Read,
				PredictedWrite:          pred.Write,
				PredictedCandidateRead:  pred.CandidateRead,
				PredictedCandidateWrite: pred.CandidateWrite,
				MeasuredRead:            1 - res.ReadUnavailFrac,
				MeasuredWrite:           1 - res.WriteUnavailFrac,
			}
			if simStrategy != "" {
				cell.MeasuredCandidateRead = 1 - res.CandidateReadUnavailFrac
				cell.MeasuredCandidateWrite = 1 - res.CandidateWriteUnavailFrac
				cell.Fallbacks = res.Fallbacks
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}
