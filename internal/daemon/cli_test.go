package daemon

import (
	"strings"
	"testing"

	"coterie/internal/nodeset"
)

// TestParseFlagsCapacityAndStrategy pins the weighted-strategy CLI
// surface: -strategy accepts the full core.ParseStrategy vocabulary and
// -capacity parses the id=weight list shared with loadgen.
func TestParseFlagsCapacityAndStrategy(t *testing.T) {
	cfg, err := ParseFlags([]string{
		"-node", "1",
		"-cluster", "0=127.0.0.1:7000,1=127.0.0.1:7001",
		"-strategy", "optimized",
		"-capacity", "0=1.0,1=0.25",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy != "optimized" {
		t.Fatalf("Strategy = %q", cfg.Strategy)
	}
	if len(cfg.Capacities) != 2 || cfg.Capacities[1] != 0.25 {
		t.Fatalf("Capacities = %v", cfg.Capacities)
	}

	if _, err := ParseFlags([]string{
		"-cluster", "0=127.0.0.1:7000", "-strategy", "optimized", "-capacity", "0=-3",
	}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := ParseFlags([]string{
		"-cluster", "0=127.0.0.1:7000", "-strategy", "optimized", "-capacity", "x=1",
	}); err == nil {
		t.Fatal("non-numeric node ID accepted")
	}
}

// TestParseFlagsCapacityNeedsOptimized: only the optimized solver reads
// capacities, so -capacity under any other strategy is a flag error, not
// a silently ignored setting.
func TestParseFlagsCapacityNeedsOptimized(t *testing.T) {
	for _, strategy := range []string{"", "hint", "load", "bogus"} {
		args := []string{"-cluster", "0=127.0.0.1:7000", "-capacity", "0=0.5"}
		if strategy != "" {
			args = append(args, "-strategy", strategy)
		}
		if _, err := ParseFlags(args); err == nil || !strings.Contains(err.Error(), "-strategy optimized") {
			t.Errorf("-capacity with -strategy %q: err = %v, want a -strategy optimized error", strategy, err)
		}
	}
	cfg, err := ParseFlags([]string{"-cluster", "0=127.0.0.1:7000", "-strategy", "opt", "-capacity", "0=0.5"})
	if err != nil || cfg.Capacities[0] != 0.5 {
		t.Fatalf("-capacity with -strategy opt: cfg.Capacities = %v, err = %v", cfg.Capacities, err)
	}
}

// TestCapacitiesRoundTrip: FormatCapacities output must re-parse to the
// same map (the loadgen spawner relies on this to forward -capacity).
func TestCapacitiesRoundTrip(t *testing.T) {
	caps := map[nodeset.ID]float64{0: 1, 4: 0.25, 8: 2.5}
	s := FormatCapacities(caps)
	got, err := ParseCapacities(s)
	if err != nil {
		t.Fatalf("ParseCapacities(%q): %v", s, err)
	}
	if len(got) != len(caps) {
		t.Fatalf("round trip %q -> %v", s, got)
	}
	for id, w := range caps {
		if got[id] != w {
			t.Fatalf("node %d: %v != %v (via %q)", id, got[id], w, s)
		}
	}
}

// TestDaemonRejectsUnknownStrategy: Start must fail fast on a strategy
// ParseStrategy does not know — including both names of the retired
// read-skewed mode — with an error naming the valid ones.
func TestDaemonRejectsUnknownStrategy(t *testing.T) {
	book := freeAddrs(t, 1)
	for _, strategy := range []string{"bogus", "read-dominant", "readdom"} {
		d, err := Start(Config{
			Self:     0,
			Addrs:    book,
			Strategy: strategy,
		})
		if err == nil {
			d.Close()
			t.Fatalf("Start accepted strategy %q", strategy)
		}
		for _, valid := range []string{"hint", "load", "optimized"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("strategy %q: error %q does not name %q", strategy, err, valid)
			}
		}
	}
}

// TestParseFlagsRejectsRetiredFlags: the fixed-item-list mode, the
// dial-per-call switch, the combiner sizing knobs and the standalone
// metrics and pprof listeners (the admin plane serves both) are gone, so
// their flags must fail loudly rather than be ignored.
func TestParseFlagsRejectsRetiredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-items", "4"}, {"-pipeline=false"},
		{"-metrics", "127.0.0.1:9090"}, {"-pprof", "127.0.0.1:6060"},
		{"-batch-max", "8"}, {"-batch-queue", "32"},
	} {
		if _, err := ParseFlags(append([]string{"-cluster", "0=127.0.0.1:7000"}, args...)); err == nil {
			t.Errorf("ParseFlags accepted retired flag %v", args)
		}
	}
	cfg, err := ParseFlags([]string{"-cluster", "0=127.0.0.1:7000"})
	if err != nil || cfg.Shards != 1 {
		t.Fatalf("default Shards = %d (err %v), want 1", cfg.Shards, err)
	}
}
