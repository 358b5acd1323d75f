package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/transport"
)

// reasons counts failed operations by why they failed.
type reasons struct {
	Timeout     int `json:"timeout"`
	Unavailable int `json:"unavailable"`
	Conflict    int `json:"conflict"`
	Other       int `json:"other"`
}

func (r *reasons) add(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		r.Timeout++
	case errors.Is(err, core.ErrConflict), errors.Is(err, errCapiConflict):
		r.Conflict++
	case errors.Is(err, core.ErrUnavailable), errors.Is(err, errCapiUnavailable), errors.Is(err, transport.ErrCallFailed):
		r.Unavailable++
	default:
		r.Other++
	}
}

func (r *reasons) merge(o reasons) {
	r.Timeout += o.Timeout
	r.Unavailable += o.Unavailable
	r.Conflict += o.Conflict
	r.Other += o.Other
}

func (r reasons) total() int { return r.Timeout + r.Unavailable + r.Conflict + r.Other }

// Client-side forms of the daemon's non-OK reply statuses, so one
// classifier serves both data planes.
var (
	errCapiConflict    = errors.New("capi: conflict")
	errCapiUnavailable = errors.New("capi: unavailable")
)

func capiStatusErr(st capi.Status, detail string) error {
	switch st {
	case capi.StatusOK:
		return nil
	case capi.StatusConflict:
		return fmt.Errorf("%w: %s", errCapiConflict, detail)
	case capi.StatusUnavailable:
		return fmt.Errorf("%w: %s", errCapiUnavailable, detail)
	default:
		return fmt.Errorf("capi: status %s: %s", st, detail)
	}
}

// quantile returns the nearest-rank q-quantile of sorted, and whether at
// least minBeyond samples lie above it — the rule for reporting a
// percentile at all.
func quantile(sorted []int64, q float64, minBeyond int) (int64, bool) {
	n := len(sorted)
	if n == 0 || float64(n)*(1-q) < float64(minBeyond) {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(idx, 0)], true
}

// p50 is the median of s, or 0 when s is empty.
func p50(s []int64) int64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	v, _ := quantile(sorted, 0.5, 0)
	return v
}

// p99 is the 99th percentile of s, or 0 when fewer than 10 samples lie
// beyond it.
func p99(s []int64) int64 {
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	v, _ := quantile(sorted, 0.99, 10)
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS sets this process's peak resident set (VmHWM) back to its
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSkB reads a process's peak resident set (VmHWM) in kB; pid 0 is
// this process.
func peakRSSkB(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// stamp identifies the code and machine a result came from.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Started    string `json:"started"`
}

// sameMachine reports whether two results were measured on comparable
// machines.
func (s stamp) sameMachine(o stamp) bool {
	return s.NumCPU == o.NumCPU && s.GOMAXPROCS == o.GOMAXPROCS && s.Nproc == o.Nproc
}

func newStamp(seed int64) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty {
			commit += "+dirty"
		}
	}
	return stamp{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      nproc(),
		Seed:       seed,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// nproc is the number of CPUs this process may use: the affinity mask,
// further capped by a cgroup v2 CPU quota when one is set.
func nproc() int {
	n := runtime.NumCPU()
	raw, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return n
	}
	f := strings.Fields(string(raw))
	if len(f) != 2 || f[0] == "max" {
		return n
	}
	quota, err1 := strconv.ParseFloat(f[0], 64)
	period, err2 := strconv.ParseFloat(f[1], 64)
	if err1 != nil || err2 != nil || period <= 0 {
		return n
	}
	return max(1, min(n, int(math.Ceil(quota/period))))
}
