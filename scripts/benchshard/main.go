// Command benchshard measures the horizontally sharded data plane — the
// placement-driven keyspace split, the multi-coterie daemons, and the smart
// client's affinity routing and hedged reads — and writes BENCH_7.json.
// Three sections, each with its own acceptance gate:
//
//   - million: a deterministic sweep of a 1,000,000-key keyspace across 4
//     daemons (32 shards, rf=2) with stride-sampled one-copy history
//     checking. Gates: every key touched (distinct_keys >= keyspace) and
//     zero one-copy violations.
//   - shardscale: the same node count configured as one coterie over all
//     4 nodes (shards=1, rf=4) versus four 2-replica coteries (shards=4,
//     rf=2). Sharding narrows quorums and multiplies independent
//     coordinators, so throughput must scale >= 1.8x.
//   - hedging: one daemon serves reads 10ms slow; the 95%-read workload
//     runs with hedged reads off, then on. The hedge must cut read p99 by
//     >= 30% (the client's p99-capped-at-8x-p50 trigger fires before the
//     slow member answers and the alternate coterie quorum wins).
//
// Every loadgen child reports the GOMAXPROCS it actually ran with; the
// report records the child's value, never the parent's request.
//
// Throughput sections run several trials and keep the best ops/sec
// (closed-loop throughput is noisy downward); the million sweep is a
// coverage run and runs once.
//
// Usage: go run ./scripts/benchshard [-duration 5s] [-trials 2]
// [-keys 1000000] [-out BENCH_7.json] [-smoke]
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

// loadgenOut is the subset of cmd/loadgen's sharded-mode JSON report that
// benchshard reads.
type loadgenOut struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Ops          int     `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	ReadP50us    int64   `json:"read_p50_us"`
	ReadP99us    int64   `json:"read_p99_us"`
	ReadP999us   int64   `json:"read_p999_us"`
	WriteP50us   int64   `json:"write_p50_us"`
	WriteP99us   int64   `json:"write_p99_us"`
	WriteP999us  int64   `json:"write_p999_us"`
	Failures     int     `json:"failures"`
	Violations   *int    `json:"onecopy_violations"`
	DistinctKeys int     `json:"distinct_keys"`
	CheckedKeys  int     `json:"checked_keys"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	Client       *struct {
		Retries    uint64 `json:"retries"`
		Hedges     uint64 `json:"hedges"`
		HedgeWins  uint64 `json:"hedge_wins"`
		WrongShard uint64 `json:"wrong_shard"`
	} `json:"client"`
}

type spec struct {
	nodes, shards, rf int
	keyspace, workers int
	readFrac          float64
	sweep, hedge      bool
	slowNode          int
	slowRead          time.Duration
	checkStride       int
	duration          time.Duration
}

func (s spec) args() []string {
	args := []string{"run", "./cmd/loadgen",
		"-net", "tcp", "-batch",
		"-nodes", strconv.Itoa(s.nodes),
		"-shards", strconv.Itoa(s.shards),
		"-rf", strconv.Itoa(s.rf),
		"-items", strconv.Itoa(s.keyspace), "-zipf-items",
		"-workers", strconv.Itoa(s.workers),
		"-read-frac", fmt.Sprintf("%g", s.readFrac),
		"-item-size", "32",
		"-duration", s.duration.String(),
		"-check-stride", strconv.Itoa(s.checkStride),
		"-hedge=" + strconv.FormatBool(s.hedge),
	}
	if s.sweep {
		args = append(args, "-sweep")
	}
	if s.slowRead > 0 {
		args = append(args, "-slow-node", strconv.Itoa(s.slowNode), "-slow-read", s.slowRead.String())
	}
	return args
}

func runOnce(s spec) (loadgenOut, error) {
	cmd := exec.Command("go", s.args()...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return loadgenOut{}, fmt.Errorf("loadgen (shards=%d rf=%d keys=%d): %w", s.shards, s.rf, s.keyspace, err)
	}
	var out loadgenOut
	if err := json.Unmarshal(outBytes, &out); err != nil {
		return loadgenOut{}, fmt.Errorf("parsing loadgen output: %w", err)
	}
	if out.Violations != nil && *out.Violations > 0 {
		return loadgenOut{}, fmt.Errorf("loadgen (shards=%d rf=%d) reported %d one-copy violations", s.shards, s.rf, *out.Violations)
	}
	return out, nil
}

// best runs spec trials times and keeps the highest-throughput result.
func best(s spec, trials int, label string) loadgenOut {
	var b loadgenOut
	for t := 0; t < trials; t++ {
		r, err := runOnce(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchshard:", err)
			os.Exit(1)
		}
		if r.OpsPerSec > b.OpsPerSec {
			b = r
		}
	}
	fmt.Fprintf(os.Stderr, "%-12s shards=%-2d rf=%d procs=%d best %8.0f ops/s  read p50/p99/p999 %d/%d/%dus\n",
		label, s.shards, s.rf, b.GOMAXPROCS, b.OpsPerSec, b.ReadP50us, b.ReadP99us, b.ReadP999us)
	return b
}

type sectionResult struct {
	Shards       int     `json:"shards"`
	RF           int     `json:"rf"`
	Nodes        int     `json:"nodes"`
	Keyspace     int     `json:"keyspace"`
	Workers      int     `json:"workers"`
	GOMAXPROCS   int     `json:"gomaxprocs"` // child-reported, not requested
	Hedge        bool    `json:"hedge"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	Ops          int     `json:"ops"`
	ReadP50us    int64   `json:"read_p50_us"`
	ReadP99us    int64   `json:"read_p99_us"`
	ReadP999us   int64   `json:"read_p999_us"`
	WriteP99us   int64   `json:"write_p99_us"`
	Failures     int     `json:"failures"`
	DistinctKeys int     `json:"distinct_keys,omitempty"`
	CheckedKeys  int     `json:"checked_keys,omitempty"`
	ElapsedSec   float64 `json:"elapsed_sec,omitempty"`
	Hedges       uint64  `json:"hedges,omitempty"`
	HedgeWins    uint64  `json:"hedge_wins,omitempty"`
}

func toResult(s spec, o loadgenOut) sectionResult {
	r := sectionResult{
		Shards: s.shards, RF: s.rf, Nodes: s.nodes, Keyspace: s.keyspace,
		Workers: s.workers, GOMAXPROCS: o.GOMAXPROCS, Hedge: s.hedge,
		OpsPerSec: o.OpsPerSec, Ops: o.Ops,
		ReadP50us: o.ReadP50us, ReadP99us: o.ReadP99us, ReadP999us: o.ReadP999us,
		WriteP99us: o.WriteP99us, Failures: o.Failures,
		DistinctKeys: o.DistinctKeys, CheckedKeys: o.CheckedKeys, ElapsedSec: o.ElapsedSec,
	}
	if o.Client != nil {
		r.Hedges, r.HedgeWins = o.Client.Hedges, o.Client.HedgeWins
	}
	return r
}

type report struct {
	Benchmark string `json:"benchmark"`
	NumCPU    int    `json:"num_cpu"`
	Trials    int    `json:"trials"`
	Duration  string `json:"duration_per_trial"`

	Million     sectionResult `json:"million"`
	MillionPass bool          `json:"million_pass"` // full coverage, zero violations

	ShardScale     []sectionResult `json:"shardscale"` // [unsharded, sharded]
	ShardSpeedup   float64         `json:"shard_speedup"`
	ShardScalePass bool            `json:"shardscale_pass"` // >= 1.8x

	Hedging     []sectionResult `json:"hedging"` // [hedge off, hedge on]
	HedgeP99Cut float64         `json:"hedge_p99_cut"`
	HedgingPass bool            `json:"hedging_pass"` // >= 30% read p99 cut

	Pass bool   `json:"pass"`
	Note string `json:"note"`
}

func main() {
	duration := flag.Duration("duration", 5*time.Second, "measured duration per throughput trial")
	trials := flag.Int("trials", 2, "trials per throughput configuration (best kept)")
	keys := flag.Int("keys", 1_000_000, "keyspace for the million-key sweep section")
	out := flag.String("out", "BENCH_7.json", "report path")
	smoke := flag.Bool("smoke", false, "tiny CI run: small keyspace, one trial, coverage+hedging gates only, no report file")
	flag.Parse()

	if *smoke {
		*keys = 2000
		*trials = 1
		*duration = 2 * time.Second
	}

	rep := report{
		Benchmark: "BENCH_7 sharded data plane: placement, smart client, hedged reads",
		NumCPU:    runtime.NumCPU(),
		Trials:    *trials,
		Duration:  duration.String(),
		Note: "million: full-coverage Zipfian sweep with stride-sampled one-copy checking. " +
			"shardscale: 4 nodes as one rf=4 coterie vs four rf=2 coteries, gate >= 1.8x. " +
			"hedging: daemon 0 reads 10ms slow, 95% reads; hedged reads must cut read p99 >= 30%. " +
			"gomaxprocs fields are child-reported.",
	}

	// Section 1: the million-key sweep. One trial — the gate is coverage
	// and safety, not speed.
	fmt.Fprintf(os.Stderr, "benchshard: million-key sweep (%d keys)...\n", *keys)
	mSpec := spec{nodes: 4, shards: 32, rf: 2, keyspace: *keys, workers: 8,
		readFrac: 0.5, sweep: true, checkStride: 64, duration: *duration}
	mOut, err := runOnce(mSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchshard:", err)
		os.Exit(1)
	}
	rep.Million = toResult(mSpec, mOut)
	rep.MillionPass = mOut.DistinctKeys >= *keys // runOnce fails on violations
	fmt.Fprintf(os.Stderr, "benchshard: million: %d distinct keys, %d checked, %.0f ops/s, %.0fs\n",
		mOut.DistinctKeys, mOut.CheckedKeys, mOut.OpsPerSec, mOut.ElapsedSec)

	// Section 2: shard scaling on identical hardware. Skipped in smoke
	// mode: the 1.8x separation needs a measured run, not a 2s spin-up.
	rep.ShardScalePass = true
	if !*smoke {
		unsharded := spec{nodes: 4, shards: 1, rf: 4, keyspace: 10000, workers: 8,
			readFrac: 0.5, checkStride: 1, duration: *duration}
		sharded := unsharded
		sharded.shards, sharded.rf = 4, 2
		u := best(unsharded, *trials, "unsharded")
		s := best(sharded, *trials, "sharded")
		rep.ShardScale = []sectionResult{toResult(unsharded, u), toResult(sharded, s)}
		if u.OpsPerSec > 0 {
			rep.ShardSpeedup = s.OpsPerSec / u.OpsPerSec
		}
		rep.ShardScalePass = rep.ShardSpeedup >= 1.8
	}

	// Section 3: hedged reads against a degraded member.
	hOff := spec{nodes: 4, shards: 8, rf: 2, keyspace: 5000, workers: 6,
		readFrac: 0.95, slowNode: 0, slowRead: 10 * time.Millisecond,
		checkStride: 1, duration: *duration}
	hOn := hOff
	hOn.hedge = true
	off := best(hOff, *trials, "hedge-off")
	on := best(hOn, *trials, "hedge-on")
	rep.Hedging = []sectionResult{toResult(hOff, off), toResult(hOn, on)}
	if off.ReadP99us > 0 {
		rep.HedgeP99Cut = 1 - float64(on.ReadP99us)/float64(off.ReadP99us)
	}
	rep.HedgingPass = rep.HedgeP99Cut >= 0.30
	fmt.Fprintf(os.Stderr, "benchshard: hedging: read p99 %dus -> %dus (%.1f%% cut)\n",
		off.ReadP99us, on.ReadP99us, 100*rep.HedgeP99Cut)

	rep.Pass = rep.MillionPass && rep.ShardScalePass && rep.HedgingPass
	if *smoke {
		if !rep.Pass {
			fmt.Fprintf(os.Stderr, "benchshard: SMOKE FAIL (million=%v hedging=%v)\n", rep.MillionPass, rep.HedgingPass)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchshard: smoke pass")
		return
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchshard:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchshard:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchshard: wrote %s (pass=%v: million=%v shardscale=%v [%.2fx] hedging=%v [%.1f%%])\n",
		*out, rep.Pass, rep.MillionPass, rep.ShardScalePass, rep.ShardSpeedup, rep.HedgingPass, 100*rep.HedgeP99Cut)
	if !rep.Pass {
		os.Exit(1)
	}
}
