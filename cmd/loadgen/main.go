// Command loadgen is a throughput harness for the dynamic structured
// coterie protocol's data plane. It drives K worker goroutines that each
// repeatedly pick an item and execute a read or a partial write against a
// cluster of N nodes, over one of two data planes (-net):
//
//   - sim (default): an in-process cluster over the simulated network;
//     every node replicates every item and hosts a coordinator per item,
//     and each operation goes to a randomly drawn coordinator.
//   - tcp: one coteried daemon process per node (this binary's coteried
//     subcommand) driven over loopback through the smart capi client; see
//     net.go.
//
// Both planes share one worker loop, one churn loop and one report. Items
// are picked pinned per worker (-disjoint), Zipfian (-zipf-items) or
// uniformly, and -sweep interleaves a deterministic walk so every item is
// touched at least once. By default the loop is closed (each worker waits
// for its operation before issuing the next, so offered load tracks
// service rate and aggregate ops/sec measures the data plane itself, not
// a queue); -rate R switches to an open loop where the workers
// collectively issue R operations per second on a fixed schedule and
// latency is measured from each operation's scheduled arrival, so backlog
// shows up in the tail percentiles.
//
// The group-commit pipeline is driven by -batch; in the sim plane it
// merges best when -affinity routes all writes for an item through one
// coordinator (the capi client already does so on tcp). -strategy selects
// quorum picking: "hint" rotates pseudo-randomly, "load" steers toward
// the least-loaded endpoints via a shared EWMA load tracker, and
// "optimized" samples a solved capacity-weighted quorum distribution
// (node capacities from -capacity). -batch-prop batches stale propagation
// per target node.
//
// Observability (-obs, on by default) attaches the obs registry to every
// layer (and, in the sim plane, a flight recorder); -metrics ADDR
// additionally serves the live registry over HTTP (Prometheus text at /,
// ?format=json, ?format=traces). -latency injects per-call network delay
// (sim only) and -churn crashes/restarts nodes with epoch checks in
// between, which surfaces the paper's failure-path metrics: epoch
// redirects, stale marks and the staleness-duration histogram. A
// human-readable summary goes to stderr; stdout stays one pure JSON object
// (see result). Typical use:
//
//	go run ./cmd/loadgen -nodes 9 -items 8 -workers 8 -duration 3s
//	go run ./cmd/loadgen -latency 200us -churn 300ms -metrics :9090
//	go run ./cmd/loadgen -net tcp -nodes 3 -items 2 -workers 4 -churn 800ms
//	GOMAXPROCS=4 go run ./cmd/loadgen -read-frac 0.8 -obs=false
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/daemon"
	"coterie/internal/obs"
	"coterie/internal/obs/expose"
	"coterie/internal/replica"
	"coterie/internal/workload"
)

type config struct {
	nodes       int
	items       int
	workers     int
	readFrac    float64
	duration    time.Duration
	itemSize    int
	writeLen    int
	seed        int64
	timeout     time.Duration
	callTimeout time.Duration
	disjoint    bool
	zipfItems   bool
	zipfTheta   float64
	sweep       bool
	rate        float64
	obsOn       bool
	metricsAddr string
	latency     time.Duration
	churn       time.Duration
	traceCap    int
	batch       bool
	strategy    string
	capacity    string
	affinity    bool
	batchProp   bool
	slowNode    int
	slowRead    time.Duration
	pprofPort   int
	compare     string
	netMode     string

	// TCP plane only.
	pool        int
	adminOn     bool
	traceSample int
	shards      int
	rf          int
	hedge       bool
	checkStride int
	maxCoords   int
}

// outcomes is the per-operation-type disposition breakdown.
type outcomes struct {
	OK          int `json:"ok"`
	Unavailable int `json:"quorum_unavailable"`
	Conflict    int `json:"conflict"`
	TimedOut    int `json:"timed_out"`
	Other       int `json:"other"`
}

func (o *outcomes) add(err error) {
	switch {
	case err == nil:
		o.OK++
	case errors.Is(err, context.DeadlineExceeded):
		o.TimedOut++
	case errors.Is(err, core.ErrConflict):
		o.Conflict++
	case errors.Is(err, core.ErrUnavailable):
		o.Unavailable++
	default:
		o.Other++
	}
}

// result is the JSON report. Latencies are microseconds.
type result struct {
	Net           string           `json:"net"`
	Nodes         int              `json:"nodes"`
	Items         int              `json:"items"`
	Workers       int              `json:"workers"`
	ReadFrac      float64          `json:"read_frac"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	NumCPU        int              `json:"num_cpu"`
	Seed          int64            `json:"seed"`
	Obs           bool             `json:"obs"`
	Batch         bool             `json:"batch"`
	Strategy      string           `json:"strategy"`
	Capacity      string           `json:"capacity,omitempty"`
	ZipfItems     bool             `json:"zipf_items,omitempty"`
	ZipfTheta     float64          `json:"zipf_theta,omitempty"`
	Affinity      bool             `json:"affinity"`
	BatchProp     bool             `json:"batch_prop"`
	RateTarget    float64          `json:"rate_target,omitempty"`
	LatencyUs     int64            `json:"latency_us"`
	ChurnMs       int64            `json:"churn_ms"`
	SlowRead      string           `json:"slow_read,omitempty"`
	ElapsedSec    float64          `json:"elapsed_sec"`
	Ops           int              `json:"ops"`
	Reads         int              `json:"reads"`
	Writes        int              `json:"writes"`
	Conflicts     int              `json:"conflicts"`
	Failures      int              `json:"failures"`
	OpsPerSec     float64          `json:"ops_per_sec"`
	ReadP50us     int64            `json:"read_p50_us"`
	ReadP99us     int64            `json:"read_p99_us"`
	ReadP999us    int64            `json:"read_p999_us"`
	WriteP50us    int64            `json:"write_p50_us"`
	WriteP99us    int64            `json:"write_p99_us"`
	WriteP999us   int64            `json:"write_p999_us"`
	ReadOutcomes  outcomes         `json:"read_outcomes"`
	WriteOutcomes outcomes         `json:"write_outcomes"`
	DistinctKeys  int              `json:"distinct_keys"`
	Metrics       map[string]int64 `json:"metrics,omitempty"`

	// StrategyOutcomes keys the run's read/write dispositions by the
	// canonical strategy name, so sweep harnesses can merge reports from
	// different strategies without re-deriving which run was which.
	StrategyOutcomes map[string]opOutcomes `json:"strategy_outcomes,omitempty"`

	// TCP-plane extras: the one-copy serializability verdict and how many
	// items it checked (nil/0 in the sim plane, which records no history),
	// the placement geometry, per-shard operation counts, and the smart
	// client's retry/hedge counters.
	OneCopyViolations *int              `json:"onecopy_violations,omitempty"`
	CheckedKeys       int               `json:"checked_keys,omitempty"`
	Shards            int               `json:"shards,omitempty"`
	RF                int               `json:"rf,omitempty"`
	Hedge             *bool             `json:"hedge,omitempty"`
	PerShardOps       []int64           `json:"per_shard_ops,omitempty"`
	Client            *capi.ClientStats `json:"client,omitempty"`

	// Cluster-merged counters scraped from every daemon's admin endpoint
	// after the run (tcp plane with -admin): the server-side totals the
	// client-side Metrics map cannot see.
	ClusterMetrics map[string]int64 `json:"cluster_metrics,omitempty"`
}

// workerStats accumulates one worker's counts and latency samples; workers
// never share these, so the measurement loop itself is contention-free.
type workerStats struct {
	reads, writes       int
	conflicts, failures int
	readOut, writeOut   outcomes
	readLat, writeLat   []time.Duration
}

// plane is one data plane behind the shared worker and churn loops: the
// in-process simulator (simPlane) or spawned daemons over TCP (tcpPlane).
// Items and nodes are indices: item in [0, items), node in [0, nodes).
type plane interface {
	// read and write run one client operation on item, bounded by the
	// operation timeout. node is the worker's coordinator draw, which only
	// the sim plane uses (the capi client routes by item). A write's error
	// wraps core.ErrConflict exactly when it cleanly aborted.
	read(ctx context.Context, item, node int) error
	write(ctx context.Context, item, node int, u replica.Update) error
	// checkEpoch runs one epoch check on item coordinated by node.
	checkEpoch(ctx context.Context, item, node int)
	// crash takes node down; restart brings it back as a recovering
	// replica.
	crash(node int)
	restart(node int) error
	// finish adds the plane's own report fields once the workers are done
	// and returns an error if the run failed its checks; close releases
	// the plane.
	finish(res *result) error
	close()
}

func main() {
	// Self-spawn: `loadgen coteried <flags>` runs one daemon, so -net tcp
	// needs no separately built binary on the machine it runs on.
	if len(os.Args) > 1 && os.Args[1] == "coteried" {
		if err := daemon.RunMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "coteried:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the flag set already reported it
	}
	res, err := run(cfg)
	if res != nil {
		if encErr := json.NewEncoder(os.Stdout).Encode(res); encErr != nil && err == nil {
			err = encErr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// parseFlags parses a loadgen command line into a config.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.IntVar(&cfg.nodes, "nodes", 9, "replica nodes")
	fs.IntVar(&cfg.items, "items", 8, "distinct data items (keys)")
	fs.IntVar(&cfg.workers, "workers", 8, "closed-loop client goroutines")
	fs.Float64Var(&cfg.readFrac, "read-frac", 0.5, "fraction of operations that are reads")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "measurement interval")
	fs.IntVar(&cfg.itemSize, "item-size", 256, "logical item size in bytes")
	fs.IntVar(&cfg.writeLen, "write-len", 16, "max partial-write length in bytes")
	fs.Int64Var(&cfg.seed, "seed", 1, "PRNG seed")
	fs.DurationVar(&cfg.timeout, "op-timeout", 5*time.Second, "per-operation timeout")
	fs.DurationVar(&cfg.callTimeout, "call-timeout", 250*time.Millisecond, "per-RPC-round timeout (also scales lock leases)")
	fs.BoolVar(&cfg.disjoint, "disjoint", false, "pin worker w to item w%items: no protocol-level lock conflicts, isolating shared-structure contention")
	fs.BoolVar(&cfg.zipfItems, "zipf-items", false, "pick items with Zipf(-zipf theta) popularity instead of uniformly (ignored with -disjoint)")
	fs.Float64Var(&cfg.zipfTheta, "zipf", workload.DefaultZipfTheta, "Zipfian skew theta in (0,1) for -zipf-items")
	fs.BoolVar(&cfg.sweep, "sweep", false, "interleave a full deterministic sweep of the items so every item is touched at least once (runs past -duration if needed)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in ops/sec across all workers (0 = closed loop)")
	fs.BoolVar(&cfg.obsOn, "obs", true, "attach the observability registry (and, in the sim plane, the flight recorder)")
	fs.StringVar(&cfg.metricsAddr, "metrics", "", "serve live metrics over HTTP on this address (e.g. :9090); requires -obs")
	fs.DurationVar(&cfg.latency, "latency", 0, "sim plane: mean injected per-call network latency (0 = none)")
	fs.DurationVar(&cfg.churn, "churn", 0, "crash/restart a node with epoch checks at this cadence (0 = none)")
	fs.IntVar(&cfg.traceCap, "trace-cap", 256, "flight recorder ring capacity")
	fs.BoolVar(&cfg.batch, "batch", false, "enable the group-commit write combiner")
	fs.StringVar(&cfg.strategy, "strategy", "hint", "quorum selection strategy: hint (pseudo-random rotation), load (least-loaded via EWMA) or optimized (capacity-weighted quorum distribution)")
	fs.StringVar(&cfg.capacity, "capacity", "", "relative node capacities for -strategy optimized: id=weight,... (unlisted nodes are 1.0)")
	fs.BoolVar(&cfg.affinity, "affinity", false, "sim plane: route all writes for an item through one coordinator so group commit can merge them")
	fs.BoolVar(&cfg.batchProp, "batch-prop", false, "batch stale propagation per target node")
	fs.IntVar(&cfg.slowNode, "slow-node", -1, "node ID to slow down with -slow-read (-1 = none)")
	fs.DurationVar(&cfg.slowRead, "slow-read", 0, "injected service delay on the -slow-node node (sim: every message it serves; tcp: every client read)")
	fs.IntVar(&cfg.pprofPort, "pprof", 0, "serve net/http/pprof on 127.0.0.1:PORT (tcp plane: daemon i's admin plane binds PORT+1+i)")
	fs.StringVar(&cfg.compare, "compare", "", "JSON result of a previous run to report the per-transport latency gap against (e.g. a -net sim result while running -net tcp)")
	fs.StringVar(&cfg.netMode, "net", "sim", "data plane: sim (in-process simulated network) or tcp (spawn coteried daemons and drive them over loopback)")
	fs.IntVar(&cfg.pool, "pool", 0, "tcp plane: pipelined connections per peer (0 = transport default)")
	fs.BoolVar(&cfg.adminOn, "admin", true, "tcp plane: give each spawned daemon an admin plane (/metrics /traces /healthz), use /healthz for readiness, and print a cluster-merged summary after the run")
	fs.IntVar(&cfg.traceSample, "trace-sample", 0, "tcp plane: sample 1 in N client operations into a cross-node distributed trace (0 = off, 1 = every op)")
	fs.IntVar(&cfg.shards, "shards", 1, "tcp plane: partition the items across this many coteries")
	fs.IntVar(&cfg.rf, "rf", 0, "tcp plane: replicas per shard (0 = every node)")
	fs.BoolVar(&cfg.hedge, "hedge", false, "tcp plane: hedge reads to an alternate shard member after a p99-derived delay")
	fs.IntVar(&cfg.checkStride, "check-stride", 1, "tcp plane: record one-copy history for every N-th item plus the hottest 1024 (1 = all items; larger strides bound checker memory on million-item runs)")
	fs.IntVar(&cfg.maxCoords, "max-coords", 0, "tcp plane: live coordinator cap per daemon (0 = daemon default)")
	err := fs.Parse(args)
	return cfg, err
}

// check rejects flag combinations a plane cannot honor instead of
// silently ignoring them.
func (cfg config) check() error {
	if cfg.nodes <= 0 || cfg.items <= 0 || cfg.workers <= 0 {
		return fmt.Errorf("nodes, items and workers must be positive")
	}
	if err := daemon.CheckCapacity(cfg.strategy, cfg.capacity); err != nil {
		return err
	}
	switch cfg.netMode {
	case "sim":
		if cfg.shards != 1 || cfg.rf != 0 {
			return fmt.Errorf("-shards and -rf need -net tcp (the sim plane is one coterie over every node)")
		}
	case "tcp":
		if cfg.latency > 0 {
			return fmt.Errorf("-latency is simulation-only (real TCP has real latency)")
		}
		if cfg.affinity {
			return fmt.Errorf("-affinity is simulation-only (the capi client already routes writes by item affinity)")
		}
		if cfg.shards <= 0 {
			return fmt.Errorf("-shards must be positive")
		}
		if cfg.churn > 0 && (cfg.shards > 1 || (cfg.rf > 0 && cfg.rf < cfg.nodes)) {
			return fmt.Errorf("-churn needs one shard over every node (shard maps do not version node churn yet)")
		}
	default:
		return fmt.Errorf("unknown -net %q (want sim or tcp)", cfg.netMode)
	}
	return nil
}

// run drives one load run and returns its report. A non-nil error with a
// non-nil result means the run completed but failed its checks.
func run(cfg config) (*result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	strategy, err := core.ParseStrategy(cfg.strategy)
	if err != nil {
		return nil, err
	}
	reg := obs.Nop
	if cfg.obsOn {
		reg = obs.New()
	}
	if cfg.metricsAddr != "" {
		if reg == obs.Nop {
			return nil, fmt.Errorf("-metrics requires -obs")
		}
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		srv := &http.Server{Handler: expose.Handler(reg)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: serving metrics on http://%s/ (?format=json, ?format=traces)\n", ln.Addr())
	}
	stopPprof, err := servePprof(cfg.pprofPort)
	if err != nil {
		return nil, err
	}
	defer stopPprof()

	var p plane
	if cfg.netMode == "tcp" {
		p, err = newTCPPlane(cfg, reg)
	} else {
		p, err = newSimPlane(cfg, strategy, reg)
	}
	if err != nil {
		return nil, err
	}
	defer p.close()

	res := &result{
		Net: cfg.netMode, Nodes: cfg.nodes, Items: cfg.items, Workers: cfg.workers,
		ReadFrac:   cfg.readFrac,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       cfg.seed,
		Obs:        cfg.obsOn,
		Batch:      cfg.batch,
		Strategy:   strategy.String(),
		Capacity:   cfg.capacity,
		ZipfItems:  cfg.zipfItems,
		Affinity:   cfg.affinity,
		BatchProp:  cfg.batchProp,
		RateTarget: cfg.rate,
		LatencyUs:  cfg.latency.Microseconds(),
		ChurnMs:    cfg.churn.Milliseconds(),
	}
	if cfg.zipfItems {
		res.ZipfTheta = cfg.zipfTheta
	}
	if cfg.slowRead > 0 && cfg.slowNode >= 0 {
		res.SlowRead = fmt.Sprintf("node %d +%s", cfg.slowNode, cfg.slowRead)
	}
	if err := drive(cfg, p, res); err != nil {
		return nil, err
	}
	checkErr := p.finish(res)
	if reg != obs.Nop {
		snap := reg.Snapshot()
		res.Metrics = make(map[string]int64, len(snap.Counters))
		for _, c := range snap.Counters {
			if c.Value != 0 {
				res.Metrics[c.Name] = c.Value
			}
		}
		printSummary(os.Stderr, snap)
	}
	printLatencyGap(*res, cfg.compare)
	return res, checkErr
}

// drive runs the workers (and the churn loop) against p until the
// deadline — or, with -sweep, until every item has been touched — and
// folds their stats into res.
func drive(cfg config, p plane, res *result) error {
	zipfStreams, err := zipfItemStreams(cfg)
	if err != nil {
		return err
	}
	touched := make([]atomic.Uint64, (cfg.items+63)/64)
	stats := make([]workerStats, cfg.workers)
	deadline := time.Now().Add(cfg.duration)
	ctx := context.Background()
	runCtx, runCancel := context.WithDeadline(ctx, deadline)
	defer runCancel()
	// -sweep may overrun -duration until every item has been touched, so
	// its arrivals must not stop at the deadline; each operation is still
	// bounded by its own timeout.
	paceCtx := context.Context(runCtx)
	if cfg.sweep {
		paceCtx = ctx
	}
	var wg sync.WaitGroup
	start := time.Now()
	// One pacer shared by all workers makes the union of their operations a
	// single fixed-rate arrival stream; nil (rate 0) keeps the closed loop.
	pacer := workload.NewPacer(cfg.rate, start)

	if cfg.churn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnLoop(cfg, p, deadline)
		}()
	}
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			rng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.seed) + uint64(w)*0x9e3779b97f4a7c15))))
			buf := make([]byte, cfg.writeLen)
			// The worker's sweep slice of the items, visited in order so the
			// union over workers covers every item exactly once.
			next := w * cfg.items / cfg.workers
			hi := (w + 1) * cfg.items / cfg.workers
			for op := 1; ; op++ {
				inTime := time.Now().Before(deadline)
				if !inTime && (!cfg.sweep || next >= hi) {
					return
				}
				// In open-loop mode `began` is the operation's scheduled
				// arrival (possibly in the past when the system is behind);
				// in closed-loop mode Wait returns the current time.
				began, due := pacer.Wait(paceCtx)
				if !due {
					return
				}
				var item int
				if cfg.sweep && next < hi && (!inTime || op%2 == 0) {
					// Sweep item: alternates with the regular pick during
					// the measurement window, takes over entirely after the
					// deadline so coverage completes quickly.
					item = next
					next++
				} else {
					item = pickItem(cfg, w, rng, zipfStreams)
				}
				// Read before or-ing: once an item is marked, its word stays
				// shared-clean in every worker's cache.
				if word, bit := &touched[item>>6], uint64(1)<<(item&63); word.Load()&bit == 0 {
					word.Or(bit)
				}
				isRead := rng.Float64() < cfg.readFrac
				node := rng.Intn(cfg.nodes)
				if cfg.affinity && !isRead {
					// All writes to an item share a coordinator so the
					// group-commit combiner can merge them; reads stay spread.
					node = item % cfg.nodes
				}
				if isRead {
					err := p.read(ctx, item, node)
					st.readOut.add(err)
					if err == nil {
						st.reads++
						st.readLat = append(st.readLat, time.Since(began))
					} else {
						st.failures++
					}
					continue
				}
				length := 1 + rng.Intn(cfg.writeLen)
				data := buf[:length]
				for i := range data {
					data[i] = byte('a' + rng.Intn(26))
				}
				err := p.write(ctx, item, node, replica.Update{Offset: rng.Intn(cfg.itemSize - length + 1), Data: data})
				st.writeOut.add(err)
				switch {
				case err == nil:
					st.writes++
					st.writeLat = append(st.writeLat, time.Since(began))
				case errors.Is(err, core.ErrConflict):
					st.conflicts++
				default:
					st.failures++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.ElapsedSec = elapsed.Seconds()
	var readLat, writeLat []time.Duration
	for i := range stats {
		st := &stats[i]
		res.Reads += st.reads
		res.Writes += st.writes
		res.Conflicts += st.conflicts
		res.Failures += st.failures
		addOutcomes(&res.ReadOutcomes, st.readOut)
		addOutcomes(&res.WriteOutcomes, st.writeOut)
		readLat = append(readLat, st.readLat...)
		writeLat = append(writeLat, st.writeLat...)
	}
	res.Ops = res.Reads + res.Writes
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	res.ReadP50us = percentile(readLat, 0.50).Microseconds()
	res.ReadP99us = percentile(readLat, 0.99).Microseconds()
	res.ReadP999us = percentile(readLat, 0.999).Microseconds()
	res.WriteP50us = percentile(writeLat, 0.50).Microseconds()
	res.WriteP99us = percentile(writeLat, 0.99).Microseconds()
	res.WriteP999us = percentile(writeLat, 0.999).Microseconds()
	for i := range touched {
		res.DistinctKeys += bits.OnesCount64(touched[i].Load())
	}
	res.StrategyOutcomes = map[string]opOutcomes{
		res.Strategy: {Reads: res.ReadOutcomes, Writes: res.WriteOutcomes},
	}
	return nil
}

// churnLoop crashes one node at a time, runs epoch checks so the survivors
// install a smaller epoch, restarts the node and checks again so it is
// readmitted (stale) and propagation brings it current. This exercises the
// paper's failure path end to end: epoch redirects on the coordinators
// whose cached epoch went stale, stale marks on the readmitted replica,
// and a populated staleness-duration histogram. On the tcp plane the crash
// is a SIGKILLed process and the restart a respawn with -recovering, so
// recovery re-crosses the wire.
func churnLoop(cfg config, p plane, deadline time.Time) {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(cfg.seed) ^ 0xc0ffee))))
	checkAll := func(avoid int) {
		for it := 0; it < cfg.items; it++ {
			from := rng.Intn(cfg.nodes)
			if from == avoid {
				from = (from + 1) % cfg.nodes
			}
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			p.checkEpoch(ctx, it, from)
			cancel()
		}
	}
	for time.Now().Before(deadline) {
		victim := rng.Intn(cfg.nodes)
		p.crash(victim)
		checkAll(victim)
		more := sleepUntil(cfg.churn, deadline)
		if err := p.restart(victim); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: churn: %v\n", err)
			return
		}
		checkAll(victim)
		if !more || !sleepUntil(cfg.churn, deadline) {
			return
		}
	}
}

// keyName renders item k as "k<decimal>", the item name both planes use.
func keyName(k int) string {
	var buf [24]byte
	b := append(buf[:0], 'k')
	return string(strconv.AppendInt(b, int64(k), 10))
}

// servePprof starts a net/http/pprof server on 127.0.0.1:port; port 0
// disables profiling and returns a no-op closer. It profiles the client
// process; spawned daemons get their own ports.
func servePprof(port int) (func(), error) {
	if port <= 0 {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	runtime.SetMutexProfileFraction(100)
	srv := &http.Server{Handler: daemon.PprofMux()}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "loadgen: serving pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { srv.Close(); ln.Close() }, nil
}

// sleepUntil sleeps d but not past the deadline; it reports whether the
// deadline is still ahead.
func sleepUntil(d time.Duration, deadline time.Time) bool {
	if remain := time.Until(deadline); remain < d {
		if remain > 0 {
			time.Sleep(remain)
		}
		return false
	}
	time.Sleep(d)
	return true
}

// printSummary writes the human-readable end-of-run report: the headline
// protocol metrics and one sample flight trace (preferring a partial write
// that marked replicas stale — the trace the paper's Section 4.2 story is
// about).
func printSummary(w *os.File, snap obs.Snapshot) {
	fmt.Fprintln(w, "--- obs summary ---")
	for _, c := range snap.Counters {
		if c.Value != 0 {
			fmt.Fprintf(w, "%-45s %d\n", c.Name, c.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Hist.Count == 0 {
			continue
		}
		p50, p99 := h.Hist.Quantile(0.50), h.Hist.Quantile(0.99)
		if strings.HasSuffix(h.Name, "_ns") {
			fmt.Fprintf(w, "%-45s count=%d p50=%s p99=%s\n", h.Name, h.Hist.Count,
				time.Duration(p50), time.Duration(p99))
		} else {
			fmt.Fprintf(w, "%-45s count=%d p50=%d p99=%d\n", h.Name, h.Hist.Count, p50, p99)
		}
	}
	if tr := sampleTrace(snap.Traces); tr != nil {
		fmt.Fprintln(w, "--- sample flight trace ---")
		fmt.Fprint(w, expose.FormatTrace(tr))
	}
}

// printLatencyGap writes the per-transport operation latency line to
// stderr and, when comparePath points at a previous run's JSON result,
// the ratio between the two runs' percentiles. Running the same workload
// once with -net sim and once with -net tcp -compare <sim.json> prints
// the sim-vs-TCP gap directly — the number the networked hot-path work
// drives toward 1.
func printLatencyGap(res result, comparePath string) {
	fmt.Fprintf(os.Stderr, "loadgen: latency[%s] read p50=%dµs p99=%dµs write p50=%dµs p99=%dµs (%.0f ops/s)\n",
		res.Net, res.ReadP50us, res.ReadP99us, res.WriteP50us, res.WriteP99us, res.OpsPerSec)
	if comparePath == "" {
		return
	}
	raw, err := os.ReadFile(comparePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -compare: %v\n", err)
		return
	}
	var base result
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -compare %s: %v\n", comparePath, err)
		return
	}
	ratio := func(cur, prev int64) string {
		if prev <= 0 || cur <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", float64(cur)/float64(prev))
	}
	fmt.Fprintf(os.Stderr, "loadgen: latency[%s] read p50=%dµs p99=%dµs write p50=%dµs p99=%dµs (%.0f ops/s)\n",
		base.Net, base.ReadP50us, base.ReadP99us, base.WriteP50us, base.WriteP99us, base.OpsPerSec)
	fmt.Fprintf(os.Stderr, "loadgen: gap %s vs %s: read p50 %s p99 %s, write p50 %s p99 %s, throughput %s\n",
		res.Net, base.Net,
		ratio(res.ReadP50us, base.ReadP50us), ratio(res.ReadP99us, base.ReadP99us),
		ratio(res.WriteP50us, base.WriteP50us), ratio(res.WriteP99us, base.WriteP99us),
		func() string {
			if base.OpsPerSec <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", res.OpsPerSec/base.OpsPerSec)
		}())
}

// sampleTrace picks the most interesting completed trace: a write with a
// stale-mark event if one exists, else any write, else any trace.
func sampleTrace(traces []obs.Trace) *obs.Trace {
	var anyWrite, any *obs.Trace
	for i := range traces {
		tr := &traces[i]
		if any == nil {
			any = tr
		}
		if tr.Kind != obs.OpWrite {
			continue
		}
		if anyWrite == nil {
			anyWrite = tr
		}
		for _, e := range tr.EventsSlice() {
			if e.Kind == obs.EvStaleMark {
				return tr
			}
		}
	}
	if anyWrite != nil {
		return anyWrite
	}
	return any
}

// opOutcomes pairs the read and write dispositions for one strategy in
// the report's strategy_outcomes map.
type opOutcomes struct {
	Reads  outcomes `json:"reads"`
	Writes outcomes `json:"writes"`
}

// zipfItemStreams builds one independent Zipfian item stream per worker
// when -zipf-items is on (nil otherwise), so the hottest items draw most
// of the traffic while workers stay deterministic and contention-free.
func zipfItemStreams(cfg config) ([]*workload.Zipf, error) {
	if !cfg.zipfItems {
		return nil, nil
	}
	z, err := workload.NewZipf(uint64(cfg.items), cfg.zipfTheta, cfg.seed)
	if err != nil {
		return nil, err
	}
	return z.Split(cfg.workers)
}

// pickItem chooses worker w's next item: pinned under -disjoint, Zipfian
// under -zipf-items, uniform otherwise.
func pickItem(cfg config, w int, rng *rand.Rand, zipf []*workload.Zipf) int {
	if cfg.disjoint {
		return w % cfg.items
	}
	if zipf != nil {
		return int(zipf[w].Next())
	}
	return rng.Intn(cfg.items)
}

func addOutcomes(dst *outcomes, src outcomes) {
	dst.OK += src.OK
	dst.Unavailable += src.Unavailable
	dst.Conflict += src.Conflict
	dst.TimedOut += src.TimedOut
	dst.Other += src.Other
}

// percentile returns the p-quantile of samples (nearest-rank); zero when
// no samples were collected.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(p * float64(len(samples)-1))
	return samples[idx]
}

// mix64 is the splitmix64 output function, used to derive independent
// per-worker PRNG streams from the base seed.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
