// Command perfbench is the coterie data plane's benchmark: one program, one
// result schema, four closed-loop workloads (see specs). It builds each
// workload's cluster from the repository's public packages, generates
// every input from -seed, times only calls into public functions, and
// checks every history for one-copy serializability after the timed
// window.
//
// With -trace 0 it measures the end-to-end metrics untraced. With -trace 1
// it runs the same untraced pass and then a traced pass that records spans
// at each layer boundary and reports the per-layer metrics, plus the
// tracing overhead (traced against untraced throughput).
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the line before it is the
// full report (run stamp, workload parameters, failure reasons, every
// metric). Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload disjoint --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"coterie/internal/daemon"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line the benchmark contract defines.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one run.
type report struct {
	Stamp     stamp              `json:"stamp"`
	Workload  spec               `json:"workload"`
	Seconds   float64            `json:"seconds"`
	Untraced  passReport         `json:"untraced"`
	Traced    *passReport        `json:"traced,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Correct   bool               `json:"correct"`
	SpansFile string             `json:"spans_file,omitempty"`
}

func main() {
	// Self-spawn: `perfbench coteried <flags>` runs one daemon of the tcp
	// workload, so the benchmark needs no second binary.
	if len(os.Args) > 1 && os.Args[1] == "coteried" {
		if err := daemon.RunMain(os.Args[2:]); err != nil {
			logf("coteried: %v", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "disjoint", "workload: disjoint, hotspot, churn or tcp")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of each timed window")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	compare := flag.String("compare", "", "compare two saved report lines, old,new, instead of running")
	flag.Parse()

	if n := nproc(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if *compare != "" {
		if err := compareReports(*compare); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	sp, err := lookupSpec(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
		}
		logf("%v", err)
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", sp.Name, *seed))
	rep, res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spans)
	if err != nil {
		if rep.Untraced.EndToEnd != nil {
			raw, _ := json.Marshal(rep) // plain data: cannot fail
			logf("partial report: %s", raw)
		}
		logf("%s: %v", sp.Name, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload: the untraced pass always, the traced pass
// when traced is set.
func run(sp spec, seed int64, d time.Duration, traced bool, spansPath string) (report, result, error) {
	rep := report{Stamp: newStamp(seed), Workload: sp, Seconds: d.Seconds()}
	un, err := measure(sp, seed, d, nil)
	if err != nil {
		return rep, result{}, err
	}
	rep.Untraced = un.passReport
	res := result{
		Correct:   un.correct(),
		Attempted: un.Attempted,
		Failed:    un.Failures.total(),
		Metrics:   map[string]metric{},
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := un.EndToEnd[m.name]
			if !ok {
				return rep, res, fmt.Errorf("end-to-end metric %s not measured (too few samples?)", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		rep.Correct = res.Correct
		return rep, res, nil
	}

	tr := newTracer(64)
	tp, err := measure(sp, seed, d, tr)
	if err != nil {
		return rep, res, err
	}
	rep.Traced = &tp.passReport
	rep.PerLayer = perLayer(sp, tp, tr, un)
	if err := tr.writeSpans(spansPath); err != nil {
		logf("writing spans: %v", err)
	} else {
		rep.SpansFile = spansPath
	}
	res.Correct = res.Correct && tp.correct()
	res.Attempted += tp.Attempted
	res.Failed += tp.Failures.total()
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{rep.PerLayer[m.name], m.unit}
	}
	rep.Correct = res.Correct
	return rep, res, nil
}

// compareReports prints per-metric ratios between two saved report lines
// and refuses results measured on different machines.
func compareReports(arg string) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants old,new")
	}
	var reps [2]report
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := reps[0], reps[1]
	if !a.Stamp.sameMachine(b.Stamp) {
		return fmt.Errorf("refusing to compare across machines: %+v vs %+v", a.Stamp, b.Stamp)
	}
	if a.Workload.Name != b.Workload.Name || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare %s/%gs with %s/%gs", a.Workload.Name, a.Seconds, b.Workload.Name, b.Seconds)
	}
	for _, m := range endToEnd {
		old, cur := a.Untraced.EndToEnd[m.name], b.Untraced.EndToEnd[m.name]
		fmt.Printf("%-16s %14.4f -> %14.4f %s (x%.3f)\n", m.name, old, cur, m.unit, ratio(cur, old))
	}
	return nil
}
