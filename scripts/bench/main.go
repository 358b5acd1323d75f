// Command bench is the repository's one benchmark driver. It runs
// cmd/loadgen over the cells of one suite, keeps each cell's best trial,
// evaluates the suite's acceptance gates against the kept trials, and
// writes one report shape for every suite.
//
//	go run ./scripts/bench -suite obs|batch|net|shard|trace|quorum
//		[-smoke] [-duration D] [-trials N] [-out FILE]
//
// The suites (see suites.go) are rows of one table: each lists its cells
// (loadgen arguments and the GOMAXPROCS the child runs with) and derives
// its gates from the kept cells. Each cell runs several trials and keeps
// the highest-ops/s one whole: closed-loop throughput is noisy downward
// (GC pauses, scheduler jitter, process spawn cost), so best-of is the
// low-variance estimator of what the machine can do. A one-copy violation
// in any trial, or a loadgen failure, exits 1 at once.
//
// A gate either warns on a miss or is fatal: a fatal miss exits 1 after
// the report is written. Full runs write BENCH_<suite>.json (or -out);
// -smoke, which only shard and quorum have, runs a CI-sized variant and
// writes no file.
//
// loadgen is built once per invocation into a temporary directory, so
// trials time the data plane, not the compiler. Run from the repository
// root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// loadgenOut is the subset of cmd/loadgen's JSON report the suites read.
type loadgenOut struct {
	GOMAXPROCS   int     `json:"gomaxprocs"` // child-reported, not requested
	Ops          int     `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	ReadP50us    int64   `json:"read_p50_us"`
	ReadP99us    int64   `json:"read_p99_us"`
	ReadP999us   int64   `json:"read_p999_us"`
	WriteP50us   int64   `json:"write_p50_us"`
	WriteP99us   int64   `json:"write_p99_us"`
	WriteP999us  int64   `json:"write_p999_us"`
	Failures     int     `json:"failures"`
	Violations   *int    `json:"onecopy_violations"` // null: the sim plane records no history
	DistinctKeys int     `json:"distinct_keys"`
	Client       *struct {
		Hedges        uint64 `json:"hedges"`
		HedgeWins     uint64 `json:"hedge_wins"`
		HedgeCanceled uint64 `json:"hedge_canceled"`
		TracesSampled uint64 `json:"traces_sampled"`
	} `json:"client,omitempty"`
}

// violations is the run's one-copy violation count (0 where unchecked).
func (o loadgenOut) violations() float64 {
	if o.Violations == nil {
		return 0
	}
	return float64(*o.Violations)
}

// cell is one kept (best) trial and the loadgen arguments that produced it.
type cell struct {
	Name string   `json:"name"`
	Args []string `json:"args"`
	loadgenOut
}

// gate is one acceptance check: Value Cmp Threshold must hold. A fatal
// gate's miss exits 1; any other miss warns.
type gate struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Cmp       string  `json:"cmp"` // ">=" or "<="
	Pass      bool    `json:"pass"`
	Fatal     bool    `json:"fatal"`
}

func check(name string, value float64, cmp string, threshold float64, fatal bool) gate {
	g := gate{Name: name, Value: value, Threshold: threshold, Cmp: cmp, Fatal: fatal}
	switch cmp {
	case ">=":
		g.Pass = value >= threshold
	case "<=":
		g.Pass = value <= threshold
	default:
		panic("bench: unknown gate comparison " + cmp)
	}
	return g
}

// stamp records what produced a report; reports from different commits or
// machines are not comparable.
type stamp struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
}

type report struct {
	Suite        string      `json:"suite"`
	Duration     string      `json:"duration_per_trial"`
	Trials       int         `json:"trials"`
	Stamp        stamp       `json:"stamp"`
	Cells        []cell      `json:"cells"`
	Gates        []gate      `json:"gates"`
	Availability []availCell `json:"availability,omitempty"`
}

// params is one invocation's resolved settings.
type params struct {
	duration time.Duration
	trials   int
	smoke    bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("suite", "", "suite to run: "+strings.Join(suiteNames(), ", "))
	smoke := fs.Bool("smoke", false, "CI-sized variant (shard, quorum only); writes no report")
	duration := fs.Duration("duration", 0, "measurement interval per trial (0 = the suite's default)")
	trials := fs.Int("trials", 0, "trials per cell, best kept (0 = the suite's default)")
	out := fs.String("out", "", "report path (default BENCH_<suite>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, p, err := resolve(*name, *smoke, *duration, *trials)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *out == "" {
		*out = "BENCH_" + s.name + ".json"
	}

	dir, err := os.MkdirTemp("", "coterie-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	exe := filepath.Join(dir, "loadgen")
	build := exec.Command("go", "build", "-o", exe, "./cmd/loadgen")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: building cmd/loadgen:", err)
		return 1
	}

	var cells []cell
	for _, spec := range s.cells(p) {
		c, err := best(exe, spec, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%-20s procs=%d best %8.0f ops/s  read p50/p99 %d/%dus  write p50/p99 %d/%dus  failures %d\n",
			c.Name, c.GOMAXPROCS, c.OpsPerSec, c.ReadP50us, c.ReadP99us, c.WriteP50us, c.WriteP99us, c.Failures)
		cells = append(cells, c)
	}
	rep := buildReport(s, p, currentStamp(), cells)
	if s.availability != nil {
		if rep.Availability, err = s.availability(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, c := range rep.Availability {
			fmt.Fprintf(os.Stderr, "avail %-8s %-10s predicted r/w %.6f/%.6f  measured r/w %.6f/%.6f\n",
				c.Rule, c.Strategy, c.PredictedRead, c.PredictedWrite, c.MeasuredRead, c.MeasuredWrite)
		}
	}

	code := 0
	for _, g := range rep.Gates {
		status := "PASS"
		switch {
		case g.Pass:
		case g.Fatal:
			status, code = "FAILED", 1
		default:
			status = "WARNING: FAILED"
		}
		fmt.Fprintf(os.Stderr, "bench: %s gate %s: %.4g %s %.4g — %s\n", s.name, g.Name, g.Value, g.Cmp, g.Threshold, status)
	}
	if p.smoke {
		return code
	}
	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
	return code
}

// resolve looks a suite up and fills the invocation's settings from the
// flags, falling back to the suite's (smoke) defaults.
func resolve(name string, smoke bool, duration time.Duration, trials int) (suite, params, error) {
	var s suite
	for _, row := range suites {
		if row.name == name {
			s = row
			break
		}
	}
	if s.name == "" {
		return s, params{}, fmt.Errorf("unknown -suite %q (want one of %s)", name, strings.Join(suiteNames(), ", "))
	}
	p := params{duration: s.duration, trials: s.trials}
	if smoke {
		if s.smoke == nil {
			return s, params{}, fmt.Errorf("suite %s has no -smoke variant", name)
		}
		p = *s.smoke
		p.smoke = true
	}
	if duration > 0 {
		p.duration = duration
	}
	if trials > 0 {
		p.trials = trials
	}
	return s, p, nil
}

func suiteNames() []string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return names
}

// best runs one cell's trials and keeps the highest-throughput trial
// whole. A one-copy violation in any trial is an error.
func best(exe string, spec cellSpec, p params) (cell, error) {
	trials, d := p.trials, p.duration
	if spec.trials > 0 {
		trials = spec.trials
	}
	if spec.duration > 0 {
		d = spec.duration
	}
	c := cell{Name: spec.name, Args: append(append([]string(nil), spec.args...), "-duration", d.String())}
	for t := 0; t < trials; t++ {
		out, err := runLoadgen(exe, c.Args, spec.procs)
		if err != nil {
			return c, fmt.Errorf("%s: %w", spec.name, err)
		}
		if v := out.violations(); v > 0 {
			return c, fmt.Errorf("%s: %g one-copy violations", spec.name, v)
		}
		if t == 0 || out.OpsPerSec > c.OpsPerSec {
			c.loadgenOut = out
		}
	}
	return c, nil
}

// runLoadgen runs one loadgen trial; procs > 0 sets the child's
// GOMAXPROCS, 0 inherits the environment's.
func runLoadgen(exe string, args []string, procs int) (loadgenOut, error) {
	cmd := exec.Command(exe, args...)
	if procs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return loadgenOut{}, fmt.Errorf("loadgen %s: %w\n%s", strings.Join(args, " "), err, tail(stderr.String(), 20))
	}
	return parseLoadgen(stdout)
}

func parseLoadgen(stdout []byte) (loadgenOut, error) {
	var out loadgenOut
	if err := json.Unmarshal(stdout, &out); err != nil {
		return loadgenOut{}, fmt.Errorf("parsing loadgen output: %w", err)
	}
	return out, nil
}

// tail returns s's last n lines.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// buildReport assembles a suite's report from its kept cells.
func buildReport(s suite, p params, st stamp, cells []cell) report {
	byName := make(map[string]loadgenOut, len(cells))
	for _, c := range cells {
		byName[c.Name] = c.loadgenOut
	}
	return report{
		Suite:    s.name,
		Duration: p.duration.String(),
		Trials:   p.trials,
		Stamp:    st,
		Cells:    cells,
		Gates:    s.gates(p, byName),
	}
}

// currentStamp reads the checkout's commit, suffixed -dirty when tracked
// files differ from it, so a report is never credited to a commit that
// did not produce it.
func currentStamp() stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
}

func writeReport(path string, rep report) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
