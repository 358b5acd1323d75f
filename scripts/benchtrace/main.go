// Command benchtrace measures the cost of the observability plane on the
// networked data path and writes BENCH_8.json. Two sections:
//
//   - overhead: the sharded TCP loadgen runs dark (no admin endpoints, no
//     trace sampling) and again with the full plane on — per-daemon admin
//     servers, /healthz readiness, 1-in-16 distributed-trace sampling, and
//     the post-run cluster scrape. The gate is 2%: a plane you cannot
//     afford to leave on is a plane nobody turns on.
//
//   - attribution: a hedged-reads run against a deliberately slow daemon
//     with tracing on must produce non-zero hedge counters (fired and
//     won-or-canceled) — the tail-attribution half of the plane observes
//     the hedges it exists to explain.
//
// Throughput is best-of-trials per configuration (closed-loop throughput
// is noisy downward; best-of is the low-variance estimator).
//
// Usage: go run ./scripts/benchtrace [-duration 3s] [-trials 3] [-out BENCH_8.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

type loadgenOut struct {
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	ReadP99us int64   `json:"read_p99_us"`
	Client    *struct {
		Hedges        uint64 `json:"hedges"`
		HedgeWins     uint64 `json:"hedge_wins"`
		HedgeCanceled uint64 `json:"hedge_canceled"`
		TracesSampled uint64 `json:"traces_sampled"`
	} `json:"client"`
	ClusterMetrics map[string]int64 `json:"cluster_metrics"`
}

type runResult struct {
	Plane     bool    `json:"plane"` // admin endpoints + tracing on
	OpsPerSec float64 `json:"ops_per_sec"`
	Ops       int     `json:"ops"`
	Traces    uint64  `json:"traces_sampled,omitempty"`
}

type report struct {
	Benchmark   string           `json:"benchmark"`
	Workload    string           `json:"workload"`
	Trials      int              `json:"trials"`
	Duration    string           `json:"duration_per_trial"`
	Results     []runResult      `json:"results"`
	OverheadPct float64          `json:"overhead_pct"` // positive = plane slower
	Gate        string           `json:"gate"`
	GatePassed  bool             `json:"gate_passed"`
	Hedge       *hedgeResult     `json:"hedge_attribution"`
	Cluster     map[string]int64 `json:"cluster_metrics_sample,omitempty"`
	Note        string           `json:"note"`
}

type hedgeResult struct {
	Hedges        uint64 `json:"hedges"`
	HedgeWins     uint64 `json:"hedge_wins"`
	HedgeCanceled uint64 `json:"hedge_canceled"`
	TracesSampled uint64 `json:"traces_sampled"`
	ReadP99us     int64  `json:"read_p99_us"`
	Attributed    bool   `json:"attributed"` // fired > 0 and every hedge resolved
}

func main() {
	duration := flag.Duration("duration", 3*time.Second, "measurement interval per trial")
	trials := flag.Int("trials", 3, "trials per configuration (best kept)")
	out := flag.String("out", "BENCH_8.json", "output file")
	flag.Parse()

	rep := report{
		Benchmark: "BENCH_8 observability plane overhead + hedge attribution",
		Workload:  "loadgen -net tcp -batch -shards 8 -nodes 4 -rf 3 -workers 8 -items 2000 -zipf-items -read-frac 0.5",
		Trials:    *trials,
		Duration:  duration.String(),
		Gate:      "plane overhead <= 2% of dark throughput",
		Note: "plane=true runs per-daemon admin endpoints, /healthz readiness, -trace-sample 16 " +
			"and a post-run cluster scrape; plane=false runs dark. overhead_pct = (dark-plane)/dark*100.",
	}

	var dark, lit float64
	for _, plane := range []bool{false, true} {
		best := runResult{Plane: plane}
		for t := 0; t < *trials; t++ {
			r, err := runOnce(plane, false, *duration)
			if err != nil {
				fatal(err)
			}
			if r.OpsPerSec > best.OpsPerSec {
				best.OpsPerSec, best.Ops = r.OpsPerSec, r.Ops
				if r.Client != nil {
					best.Traces = r.Client.TracesSampled
				}
			}
		}
		rep.Results = append(rep.Results, best)
		if plane {
			lit = best.OpsPerSec
		} else {
			dark = best.OpsPerSec
		}
		fmt.Fprintf(os.Stderr, "plane=%-5v best %.0f ops/s\n", plane, best.OpsPerSec)
	}
	if dark > 0 {
		rep.OverheadPct = (dark - lit) / dark * 100
	}
	rep.GatePassed = rep.OverheadPct <= 2.0
	fmt.Fprintf(os.Stderr, "plane overhead %.2f%% (gate <= 2%%: %v)\n", rep.OverheadPct, rep.GatePassed)
	if !rep.GatePassed {
		fmt.Fprintf(os.Stderr, "benchtrace: WARNING: overhead exceeds the 2%% budget\n")
	}

	// Attribution section: hedged reads against a slow daemon, plane on.
	hr, err := runOnce(true, true, *duration)
	if err != nil {
		fatal(err)
	}
	h := &hedgeResult{ReadP99us: hr.ReadP99us}
	if hr.Client != nil {
		h.Hedges = hr.Client.Hedges
		h.HedgeWins = hr.Client.HedgeWins
		h.HedgeCanceled = hr.Client.HedgeCanceled
		h.TracesSampled = hr.Client.TracesSampled
	}
	h.Attributed = h.Hedges > 0 && h.HedgeWins+h.HedgeCanceled > 0
	rep.Hedge = h
	rep.Cluster = hr.ClusterMetrics
	fmt.Fprintf(os.Stderr, "hedge attribution: fired=%d won=%d canceled=%d traces=%d attributed=%v\n",
		h.Hedges, h.HedgeWins, h.HedgeCanceled, h.TracesSampled, h.Attributed)
	if !h.Attributed {
		fmt.Fprintf(os.Stderr, "benchtrace: WARNING: hedge counters are zero — attribution did not engage\n")
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchtrace: wrote %s\n", *out)
}

func runOnce(plane, hedge bool, d time.Duration) (loadgenOut, error) {
	args := []string{"run", "./cmd/loadgen",
		"-net", "tcp", "-batch", "-shards", "8", "-nodes", "4", "-rf", "3",
		"-workers", "8", "-items", "2000", "-zipf-items", "-read-frac", "0.5",
		"-item-size", "32",
		"-duration", d.String(),
		fmt.Sprintf("-admin=%v", plane),
	}
	if plane {
		args = append(args, "-trace-sample", "16")
	} else {
		args = append(args, "-trace-sample", "0")
	}
	if hedge {
		args = append(args, "-hedge", "-read-frac", "0.95",
			"-slow-node", "0", "-slow-read", "10ms")
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = nil // stdout carries the JSON report
	outBytes, err := cmd.Output()
	if err != nil {
		return loadgenOut{}, fmt.Errorf("loadgen (plane=%v hedge=%v): %w", plane, hedge, err)
	}
	var r loadgenOut
	if err := json.Unmarshal(outBytes, &r); err != nil {
		return loadgenOut{}, fmt.Errorf("parsing loadgen output: %w", err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtrace:", err)
	os.Exit(1)
}
