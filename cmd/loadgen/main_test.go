package main

import (
	"os"
	"strings"
	"testing"

	"coterie/internal/daemon"
)

// TestMain lets the tcp plane spawn this test binary as a daemon, as the
// loadgen binary spawns itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "coteried" {
		if err := daemon.RunMain(os.Args[2:]); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func mustParse(t *testing.T, args ...string) config {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSimPlane drives the in-process plane through the shared worker and
// churn loops, with -sweep covering every item.
func TestSimPlane(t *testing.T) {
	cfg := mustParse(t, "-nodes", "5", "-items", "16", "-workers", "4",
		"-duration", "500ms", "-churn", "150ms", "-sweep")
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net != "sim" || res.Ops == 0 {
		t.Fatalf("sim run: net %q, %d ops", res.Net, res.Ops)
	}
	if res.DistinctKeys != cfg.items {
		t.Fatalf("sweep touched %d of %d items", res.DistinctKeys, cfg.items)
	}
	if res.OneCopyViolations != nil {
		t.Fatal("sim plane reported a one-copy verdict it never checked")
	}
}

// TestTCPPlaneChurn spawns three daemons, SIGKILLs and respawns them while
// clients run, and requires one-copy serializability of every recorded
// history.
func TestTCPPlaneChurn(t *testing.T) {
	cfg := mustParse(t, "-net", "tcp", "-nodes", "3", "-items", "2", "-workers", "4",
		"-duration", "1s", "-churn", "300ms")
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("tcp run completed no operations")
	}
	if res.OneCopyViolations == nil || *res.OneCopyViolations != 0 {
		t.Fatalf("one-copy violations = %v, want 0", res.OneCopyViolations)
	}
	if res.Shards != 1 || res.RF != 3 || res.CheckedKeys != 2 {
		t.Fatalf("geometry: %d shards rf %d, %d checked items; want 1 shard over 3 nodes, 2 checked",
			res.Shards, res.RF, res.CheckedKeys)
	}
}

// TestConfigRejectsUnsupportedFlags: a flag one plane cannot honor is an
// error, not a silently ignored setting.
func TestConfigRejectsUnsupportedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-net", "tcp", "-affinity"}, "-affinity"},
		{[]string{"-net", "tcp", "-latency", "1ms"}, "-latency"},
		{[]string{"-net", "tcp", "-shards", "4", "-churn", "1s"}, "-churn"},
		{[]string{"-net", "tcp", "-rf", "2", "-nodes", "3", "-churn", "1s"}, "-churn"},
		{[]string{"-shards", "4"}, "-shards"},
		{[]string{"-net", "bogus"}, "bogus"},
	} {
		err := mustParse(t, tc.args...).check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %s", tc.args, err, tc.want)
		}
	}
	for _, retired := range []string{"-keyspace", "-pipeline"} {
		if _, err := parseFlags([]string{retired, "1"}); err == nil {
			t.Errorf("retired flag %s accepted", retired)
		}
	}
}
