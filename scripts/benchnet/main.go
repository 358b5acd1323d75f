// Command benchnet measures the networked data plane after the
// syscall-lean hot-path work (frame-ring writer with vectored flushes,
// sharded call tables, fused protocol rounds, bystander write-through)
// and writes BENCH_6.json. Three sections:
//
//   - gate: tcp-pipelined at GOMAXPROCS=1 on the canonical workload,
//     compared against the same configuration's BENCH_5 result (read from
//     BENCH_5.json when present). The acceptance gate is >= 3x.
//   - scaling: cores in {1, 2, 4}. Each point offers proportional load
//     (workers = 8*cores, each on its own item) and runs at
//     GOMAXPROCS = min(cores, NumCPU) — weak scaling on a multi-core
//     machine, pipelining-depth scaling where the hardware has fewer CPUs
//     than requested (oversubscribing threads past physical cores would
//     measure scheduler thrash, not the transport). ops_per_sec must be
//     monotone non-decreasing from 1 to 4.
//   - churn: tcp-pipelined under process-level crash/recovery (-churn),
//     whose end-of-run one-copy serializability check must report zero
//     violations.
//
// A sim run of the canonical workload rides along so the report carries
// the sim-vs-TCP gap (ops/sec and p50/p99 per transport) — the number
// this line of work drives toward 1. The dial-per-call baseline is not
// re-measured; BENCH_5.json keeps that comparison.
//
// Each configuration runs several trials and keeps the best ops/sec
// (closed-loop throughput is noisy downward — GC pauses, scheduler
// jitter, process spawn cost — so best-of is the low-variance estimator).
//
// Usage: go run ./scripts/benchnet [-duration 3s] [-trials 3] [-out BENCH_6.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// bench5PipelinedG1 is the BENCH_5 tcp-pipelined GOMAXPROCS=1 throughput
// the gate compares against, used when BENCH_5.json is not on disk.
const bench5PipelinedG1 = 4058.5202269985543

type runResult struct {
	Transport  string  `json:"transport"` // sim | tcp-pipelined
	Cores      int     `json:"cores"`     // requested; procs is what ran
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Items      int     `json:"items"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Ops        int     `json:"ops"`
	ReadP50us  int64   `json:"read_p50_us"`
	ReadP99us  int64   `json:"read_p99_us"`
	WriteP50us int64   `json:"write_p50_us"`
	WriteP99us int64   `json:"write_p99_us"`
	Failures   int     `json:"failures"`
	Violations int     `json:"onecopy_violations"`
	ChurnMs    int64   `json:"churn_ms,omitempty"`
}

type gate struct {
	Bench5OpsPerSec float64 `json:"bench5_tcp_pipelined_ops_per_sec"`
	OpsPerSec       float64 `json:"tcp_pipelined_ops_per_sec"`
	Speedup         float64 `json:"speedup_over_bench5"` // the 3x gate
	SimOpsPerSec    float64 `json:"sim_ops_per_sec"`
	SimOverPiped    float64 `json:"sim_over_pipelined"` // residual wire cost
	Pass            bool    `json:"pass"`
}

type report struct {
	Benchmark string      `json:"benchmark"`
	Workload  string      `json:"workload"`
	Trials    int         `json:"trials"`
	Duration  string      `json:"duration_per_trial"`
	NumCPU    int         `json:"num_cpu"`
	Gate      gate        `json:"gate"`
	Scaling   []runResult `json:"scaling"`
	Monotone  bool        `json:"scaling_monotone"`
	Churn     runResult   `json:"churn"`
	Results   []runResult `json:"results"` // gate-workload runs per transport
	Note      string      `json:"note"`
}

// loadgenOut is the subset of cmd/loadgen's JSON report benchnet reads.
type loadgenOut struct {
	Ops        int     `json:"ops"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	ReadP50us  int64   `json:"read_p50_us"`
	ReadP99us  int64   `json:"read_p99_us"`
	WriteP50us int64   `json:"write_p50_us"`
	WriteP99us int64   `json:"write_p99_us"`
	Failures   int     `json:"failures"`
	Violations *int    `json:"onecopy_violations"`
}

type spec struct {
	transport string
	cores     int // requested cores; 0 = leave GOMAXPROCS at 1
	workers   int
	items     int
	churn     time.Duration
}

func (s spec) procs() int {
	p := s.cores
	if p <= 0 {
		p = 1
	}
	if n := runtime.NumCPU(); p > n {
		p = n
	}
	return p
}

func (s spec) args(d time.Duration) []string {
	args := []string{"run", "./cmd/loadgen", "-duration", d.String(),
		"-nodes", "3", "-items", strconv.Itoa(s.items), "-workers", strconv.Itoa(s.workers),
		"-disjoint", "-read-frac", "0.5"}
	if s.transport != "sim" {
		args = append(args, "-net", "tcp")
	}
	if s.churn > 0 {
		args = append(args, "-churn", s.churn.String())
	}
	return args
}

func runOnce(s spec, d time.Duration) (loadgenOut, error) {
	cmd := exec.Command("go", s.args(d)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", s.procs()))
	cmd.Stderr = nil
	outBytes, err := cmd.Output()
	if err != nil {
		return loadgenOut{}, fmt.Errorf("loadgen (%s cores=%d): %w", s.transport, s.cores, err)
	}
	var out loadgenOut
	if err := json.Unmarshal(outBytes, &out); err != nil {
		return loadgenOut{}, fmt.Errorf("parsing loadgen output: %w", err)
	}
	return out, nil
}

// best runs spec trials times and keeps the highest-throughput result;
// any one-copy violation in any trial is fatal.
func best(s spec, trials int, d time.Duration) runResult {
	b := runResult{Transport: s.transport, Cores: s.cores, GOMAXPROCS: s.procs(),
		Workers: s.workers, Items: s.items, ChurnMs: s.churn.Milliseconds()}
	for t := 0; t < trials; t++ {
		r, err := runOnce(s, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchnet:", err)
			os.Exit(1)
		}
		if r.Violations != nil && *r.Violations > 0 {
			fmt.Fprintf(os.Stderr, "benchnet: %s reported %d one-copy violations\n", s.transport, *r.Violations)
			os.Exit(1)
		}
		if r.OpsPerSec > b.OpsPerSec {
			b.OpsPerSec, b.Ops, b.Failures = r.OpsPerSec, r.Ops, r.Failures
			b.ReadP50us, b.ReadP99us = r.ReadP50us, r.ReadP99us
			b.WriteP50us, b.WriteP99us = r.WriteP50us, r.WriteP99us
			// Record the parallelism the child actually ran with, not the
			// value we asked for: loadgen reports runtime.GOMAXPROCS(0), so
			// an env override or a core-capped machine shows up honestly in
			// the scaling section instead of as a silently mislabeled point.
			if r.GOMAXPROCS > 0 {
				b.GOMAXPROCS = r.GOMAXPROCS
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%-14s cores=%d procs=%d workers=%d best %8.0f ops/s  read p50/p99 %d/%dus  write p50/p99 %d/%dus\n",
		s.transport, s.cores, b.GOMAXPROCS, s.workers, b.OpsPerSec, b.ReadP50us, b.ReadP99us, b.WriteP50us, b.WriteP99us)
	return b
}

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

func main() {
	duration := flag.Duration("duration", 3*time.Second, "measurement interval per trial")
	trials := flag.Int("trials", 3, "trials per configuration (best kept)")
	out := flag.String("out", "BENCH_6.json", "output file")
	baselinePath := flag.String("baseline", "BENCH_5.json", "BENCH_5 report to read the gate baseline from")
	churn := flag.Duration("churn", 500*time.Millisecond, "churn cadence for the crash/recovery run")
	flag.Parse()

	rep := report{
		Benchmark: "networked-hot-path",
		Workload:  "loadgen -nodes 3 -disjoint -read-frac 0.5 (workers/items per section)",
		Trials:    *trials,
		Duration:  duration.String(),
		NumCPU:    runtime.NumCPU(),
		Note: "ops_per_sec is best-of-trials closed-loop throughput. gate.speedup_over_bench5 must be >= 3 " +
			"(tcp-pipelined, GOMAXPROCS=1, same workload as BENCH_5). scaling points offer 8 workers per " +
			"requested core on disjoint items at GOMAXPROCS=min(cores,NumCPU) and must be monotone " +
			"non-decreasing 1->4. churn kills/respawns daemons every churn_ms and must verify one-copy " +
			"serializability (onecopy_violations = 0). sim rides along for the sim-vs-TCP gap (p50/p99 per transport).",
	}

	// Gate: canonical BENCH_5 workload, tcp-pipelined and sim.
	piped := best(spec{transport: "tcp-pipelined", cores: 1, workers: 8, items: 8}, *trials, *duration)
	sim := best(spec{transport: "sim", cores: 1, workers: 8, items: 8}, *trials, *duration)
	rep.Results = []runResult{piped, sim}
	rep.Gate = gate{
		Bench5OpsPerSec: bench5Baseline(*baselinePath),
		OpsPerSec:       piped.OpsPerSec,
		SimOpsPerSec:    sim.OpsPerSec,
	}
	rep.Gate.Speedup = rep.Gate.OpsPerSec / rep.Gate.Bench5OpsPerSec
	if piped.OpsPerSec > 0 {
		rep.Gate.SimOverPiped = sim.OpsPerSec / piped.OpsPerSec
	}
	rep.Gate.Pass = rep.Gate.Speedup >= 3
	fmt.Fprintf(os.Stderr, "gate: %.0f ops/s vs BENCH_5 %.0f = %.2fx (>= 3x: %v); sim/pipelined = %.2fx\n",
		rep.Gate.OpsPerSec, rep.Gate.Bench5OpsPerSec, rep.Gate.Speedup, rep.Gate.Pass, rep.Gate.SimOverPiped)
	if !rep.Gate.Pass {
		fmt.Fprintf(os.Stderr, "benchnet: WARNING: speedup %.2fx below the 3x gate\n", rep.Gate.Speedup)
	}

	// Scaling: proportional offered load per requested core.
	rep.Monotone = true
	for _, cores := range []int{1, 2, 4} {
		r := best(spec{transport: "tcp-pipelined", cores: cores, workers: 8 * cores, items: 8 * cores}, *trials, *duration)
		if n := len(rep.Scaling); n > 0 && r.OpsPerSec < rep.Scaling[n-1].OpsPerSec {
			rep.Monotone = false
		}
		rep.Scaling = append(rep.Scaling, r)
	}
	if !rep.Monotone {
		fmt.Fprintln(os.Stderr, "benchnet: WARNING: scaling curve is not monotone non-decreasing")
	}

	// Churn: crash/recovery with the one-copy history checker as the judge.
	rep.Churn = best(spec{transport: "tcp-pipelined", cores: 1, workers: 8, items: 8, churn: *churn}, 1, maxDuration(*duration, 5*time.Second))

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnet:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchnet:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchnet:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchnet: wrote %s\n", *out)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
