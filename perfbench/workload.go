package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"coterie/internal/core"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport"
	"coterie/internal/workload"
)

// Shared workload parameters. Only the round timeout and an attached obs
// registry are set on the program; every other option keeps its default.
const (
	clients     = 2
	itemSize    = 256
	maxWrite    = 16
	callTimeout = 250 * time.Millisecond
	opTimeout   = 5 * time.Second
	simNodes    = 9
	zipfTheta   = 0.99
)

// spec is one workload. Every workload is a closed loop of `clients`
// callers in one process, each waiting for its reply before the next
// operation.
type spec struct {
	Name     string  `json:"name"`
	Net      string  `json:"net"`       // "sim" or "tcp"
	Items    int     `json:"items"`     // sim: items in the cluster; tcp: keys per client
	Shared   bool    `json:"shared"`    // clients draw from one item set instead of disjoint halves
	ReadFrac float64 `json:"read_frac"` // share of operations that are reads
	Churn    bool    `json:"churn"`     // crash/restart nodes with epoch checks on a seeded schedule
	Nodes    int     `json:"nodes"`
	Shards   int     `json:"shards,omitempty"`
	Zipf     float64 `json:"zipf_theta,omitempty"`
	// Cycles is how many times a pass sets the system up and drives it
	// for an equal share of the window. Each end-to-end figure is the
	// median of its per-cycle values, so a stall, a burst of machine
	// noise or an unlucky set-up in one cycle moves it little, and
	// setup_s is the median of the cycles' set-ups. tcp runs fewer,
	// longer cycles: its set-up spawns processes, and a shorter cycle
	// holds too few writes for a per-cycle p99.
	Cycles int    `json:"cycles"`
	Why    string `json:"why"`
}

var specs = []spec{
	{Name: "disjoint", Net: "sim", Items: 64, ReadFrac: 0.5, Nodes: simNodes, Cycles: 10,
		Why: "each client owns half of 64 items, so no item lock is contended: the CPU-bound control for core, transport, replica and coterie"},
	{Name: "hotspot", Net: "sim", Items: 4, Shared: true, ReadFrac: 0.5, Nodes: simNodes, Cycles: 10,
		Why: "both clients share 4 items, so overlapping quorum locks form cycles: replica lock wait and the core heavy procedure dominate"},
	{Name: "churn", Net: "sim", Items: 64, ReadFrac: 0.5, Churn: true, Nodes: simNodes, Cycles: 10,
		Why: "disjoint clients while nodes crash and restart: epoch changes, stale marking and propagation, the paper's own mechanism"},
	{Name: "tcp", Net: "tcp", Items: 1024, ReadFrac: 0.9, Nodes: 4, Shards: 16, Zipf: zipfTheta, Cycles: 5,
		Why: "4 sharded daemons over loopback, read-heavy Zipfian keys per client: the only path through capi, tcpnet, wire, daemon and placement"},
}

func lookupSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// system is one data plane under test, built and warmed up.
type system interface {
	// op runs one operation for a client and records it in the item's
	// one-copy history.
	op(ctx context.Context, rng *rand.Rand, read bool, key int, u replica.Update) error
	// counters snapshots the program's own obs counters (cluster-wide).
	counters() map[string]int64
	// retries counts, by reason, the failed attempts the benchmark's
	// client sent again (capi's own retries are in its counters).
	retries() reasons
	// checkHistories verifies every recorded history and returns the
	// number of items that violate one-copy serializability.
	checkHistories() int
	// peakRSSMB is the peak memory of every process of the system.
	peakRSSMB() float64
	close()
}

// picker draws client c's next key.
type picker func(c int, rng *rand.Rand) int

func newPicker(sp spec, seed int64) (picker, error) {
	if sp.Zipf > 0 {
		z, err := workload.NewZipf(uint64(sp.Items), sp.Zipf, seed)
		if err != nil {
			return nil, err
		}
		zs, err := z.Split(clients)
		if err != nil {
			return nil, err
		}
		return func(c int, _ *rand.Rand) int { return c*sp.Items + int(zs[c].Next()) }, nil
	}
	if sp.Shared {
		return func(_ int, rng *rand.Rand) int { return rng.Intn(sp.Items) }, nil
	}
	half := sp.Items / clients
	return func(c int, rng *rand.Rand) int { return c*half + rng.Intn(half) }, nil
}

// window is what one timed closed loop observed.
type window struct {
	elapsed   time.Duration // until the last in-flight operation ended
	reads     []int64       // latencies of successful operations
	writes    []int64
	attempted int
	failed    reasons
}

func (w window) completed() int { return len(w.reads) + len(w.writes) }

func (w window) opsPerS() float64 { return float64(w.completed()) / w.elapsed.Seconds() }

// clientRNG derives client c's input stream from the run seed.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 1))
}

// randomUpdate draws a partial write of 1..maxWrite bytes; the data is
// freshly allocated because recorded histories keep it.
func randomUpdate(rng *rand.Rand) replica.Update {
	n := 1 + rng.Intn(maxWrite)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + rng.Intn(26))
	}
	return replica.Update{Offset: rng.Intn(itemSize - n + 1), Data: data}
}

// runWindow drives the closed loop for d. An operation in flight at the
// deadline is awaited and counted.
func runWindow(sys system, sp spec, pick picker, rngs []*rand.Rand, d time.Duration) window {
	var (
		wg    sync.WaitGroup
		parts [clients]window
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w, rng := &parts[c], rngs[c]
			for time.Now().Before(deadline) {
				read := rng.Float64() < sp.ReadFrac
				key := pick(c, rng)
				var u replica.Update
				if !read {
					u = randomUpdate(rng)
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				began := time.Now()
				err := sys.op(ctx, rng, read, key, u)
				lat := int64(time.Since(began))
				cancel()
				w.attempted++
				switch {
				case err != nil:
					w.failed.add(err)
				case read:
					w.reads = append(w.reads, lat)
				default:
					w.writes = append(w.writes, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	for _, p := range parts {
		out.reads = append(out.reads, p.reads...)
		out.writes = append(out.writes, p.writes...)
		out.attempted += p.attempted
		out.failed.merge(p.failed)
	}
	return out
}

// simSystem is the in-process cluster: simNodes replica nodes over the
// simulated network, every node replicating every item and hosting a
// coordinator per item.
type simSystem struct {
	net    *transport.Network
	reg    *obs.Registry
	tr     *tracer
	nodes  []*replica.Node
	coords [][]*core.Coordinator // [item][node]
	recs   []*onecopy.Recorder
	names  []string

	down     atomic.Int32           // crashed node, or -1
	inflight [simNodes]atomic.Int32 // operations in flight per coordinator node

	retriedMu sync.Mutex
	retried   reasons // failed attempts op sent again
}

func newSimSystem(sp spec, tr *tracer) (*simSystem, error) {
	reg := obs.New()
	netw := transport.NewNetwork(transport.WithObs(reg))
	var tnet asyncNet = netw
	if tr != nil {
		tnet = &tracedNet{inner: netw, t: tr}
	}
	s := &simSystem{net: netw, reg: reg, tr: tr}
	s.down.Store(-1)
	members := nodeset.Range(0, simNodes)
	opts := core.Options{CallTimeout: callTimeout, Obs: reg}
	// The replica configuration core derives from those options.
	rcfg := replica.Config{LockLease: 4 * callTimeout, Obs: reg}
	for i := 0; i < simNodes; i++ {
		s.nodes = append(s.nodes, replica.NewNode(nodeset.ID(i), tnet, rcfg))
	}
	for it := 0; it < sp.Items; it++ {
		name := fmt.Sprintf("item-%d", it)
		row := make([]*core.Coordinator, simNodes)
		for i, n := range s.nodes {
			rep, err := n.AddItem(name, members, make([]byte, itemSize))
			if err != nil {
				s.close()
				return nil, err
			}
			row[i] = core.NewCoordinator(rep, tnet, members, opts)
		}
		s.coords = append(s.coords, row)
		s.recs = append(s.recs, onecopy.NewRecorder(make([]byte, itemSize)))
		s.names = append(s.names, name)
	}
	return s, nil
}

// warmUp writes and then reads every item once through every node's
// coordinator, so each coordinator has run both paths before the window.
func (s *simSystem) warmUp(rng *rand.Rand) error {
	for it := range s.coords {
		for node := 0; node < simNodes; node++ {
			for _, read := range []bool{false, true} {
				var u replica.Update
				if !read {
					u = randomUpdate(rng)
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				err := s.opAt(ctx, node, read, it, u)
				cancel()
				if err != nil {
					return fmt.Errorf("warm-up of %s at node %d: %w", s.names[it], node, err)
				}
			}
		}
	}
	return nil
}

// op sends one operation to a coordinator on a node that is up and, as
// capi does, sends it again on the next node when it fails. The churn
// schedule's epoch checks lock an item's replicas for up to a round
// timeout while a node is down, so an operation that meets one can find
// no quorum. A resent write enters the history as a new write and its
// failed attempt as a maybe-write, so the one-copy check covers a write
// that applied twice. It gives up when ctx ends, and counts every failed
// attempt it resent in s.retried.
func (s *simSystem) op(ctx context.Context, rng *rand.Rand, read bool, key int, u replica.Update) error {
	node := rng.Intn(simNodes)
	backoff := time.Millisecond
	for {
		node = s.enter(node)
		err := s.opAt(ctx, node, read, key, u)
		s.inflight[node].Add(-1)
		if err == nil || ctx.Err() != nil {
			return err
		}
		s.retriedMu.Lock()
		s.retried.add(err)
		s.retriedMu.Unlock()
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 32*time.Millisecond)
		node = (node + 1) % simNodes
	}
}

// enter counts an operation in flight at the first node from node on
// that is not down, and returns that node; the caller takes the count
// off when the operation ends. The count goes up before the down check,
// and churn marks a node down before it reads the count, so either the
// operation skips the node or churn waits for it.
func (s *simSystem) enter(node int) int {
	for {
		s.inflight[node].Add(1)
		if int32(node) != s.down.Load() {
			return node
		}
		s.inflight[node].Add(-1)
		node = (node + 1) % simNodes
	}
}

func (s *simSystem) retries() reasons {
	s.retriedMu.Lock()
	defer s.retriedMu.Unlock()
	return s.retried
}

// opAt runs one attempt of an operation at node's coordinator and
// records it in the item's history.
func (s *simSystem) opAt(ctx context.Context, node int, read bool, key int, u replica.Update) error {
	co, rec := s.coords[key][node], s.recs[key]
	name := "write"
	if read {
		name = "read"
	}
	ctx, sp := s.tr.beginOp(ctx, "core", name)
	start := rec.Begin()
	var err error
	if read {
		var v []byte
		var ver uint64
		if v, ver, err = co.Read(ctx); err == nil {
			rec.EndRead(start, ver, v)
		}
	} else {
		var ver uint64
		ver, err = co.Write(ctx, u)
		switch {
		case err == nil:
			rec.EndWrite(start, ver, u)
		case errors.Is(err, core.ErrConflict):
			// A clean abort: the write cannot have applied.
		default:
			rec.EndMaybeWrite(start, u)
		}
	}
	s.tr.endOp(sp, err)
	return err
}

func (s *simSystem) counters() map[string]int64 {
	out := map[string]int64{}
	for _, c := range s.reg.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	return out
}

func (s *simSystem) checkHistories() int { return checkAll(s.recs, s.names) }

func (s *simSystem) peakRSSMB() float64 {
	kb, _ := peakRSSkB(0) // a missing /proc reads as 0, which no run can produce
	return float64(kb) / 1024
}

func (s *simSystem) close() {
	for _, n := range s.nodes {
		n.Close()
	}
}

// checkAll checks every history on two goroutines and reports the
// violating items on stderr.
func checkAll(recs []*onecopy.Recorder, names []string) int {
	var (
		wg  sync.WaitGroup
		bad atomic.Int64
		nxt atomic.Int64
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(nxt.Add(1)) - 1; i < len(recs); i = int(nxt.Add(1)) - 1 {
				if err := recs[i].Check(); err != nil {
					bad.Add(1)
					logf("ONE-COPY VIOLATION %s: %v", names[i], err)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// churnStats is what the churn schedule measured.
type churnStats struct {
	mu          sync.Mutex
	reconfig    []int64 // CheckEpoch calls that installed a new epoch
	catchup     []int64 // readmission until the replica reports not stale
	crashes     int
	unreadmit   int // items a cycle failed to readmit the node to
	catchupLost int // stale replicas not current within catchupLimit
}

const catchupLimit = 5 * time.Second

// churn crashes one node at a time on a schedule drawn from rng: drain
// the operations its coordinators are running, crash it, check every
// item's epoch until the node is excluded, restart it after an outage,
// check until it is readmitted, and time how long its stale replicas
// take to catch up. It returns once the cycle running at the deadline
// has restored the node and every catch-up watch has finished.
func (s *simSystem) churn(rng *rand.Rand, deadline time.Time, st *churnStats) {
	var watches sync.WaitGroup
	for time.Now().Before(deadline) {
		victim := rng.Intn(simNodes)
		s.down.Store(int32(victim))
		for t0 := time.Now(); s.inflight[victim].Load() > 0 && time.Since(t0) < time.Second; {
			time.Sleep(50 * time.Microsecond)
		}
		s.net.Crash(nodeset.ID(victim))
		s.checkEvery(rng, victim, false, st)
		time.Sleep(time.Duration(100+rng.Intn(100)) * time.Millisecond)
		s.net.Restart(nodeset.ID(victim))
		s.down.Store(-1)
		stale := s.checkEvery(rng, victim, true, st)
		watches.Add(1)
		go func() {
			defer watches.Done()
			watchCatchup(stale, st)
		}()
		st.mu.Lock()
		st.crashes++
		st.mu.Unlock()
		time.Sleep(time.Duration(100+rng.Intn(100)) * time.Millisecond)
	}
	watches.Wait()
}

// readmitted is a replica an epoch change readmitted as stale.
type readmitted struct {
	it    *replica.Item
	since time.Time
}

// checkEvery runs epoch checks on every item, from coordinators on nodes
// other than victim, until each item's epoch excludes victim (readmit
// false) or includes it (readmit true); three tries per item. It returns
// the victim's replicas that were readmitted stale.
func (s *simSystem) checkEvery(rng *rand.Rand, victim int, readmit bool, st *churnStats) []readmitted {
	var stale []readmitted
	for it := range s.coords {
		done := false
		for try := 0; try < 3 && !done; try++ {
			from := rng.Intn(simNodes - 1)
			if from >= victim {
				from++
			}
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			ctx, sp := s.tr.beginOp(ctx, "core", "checkepoch")
			began := time.Now()
			res, err := s.coords[it][from].CheckEpoch(ctx)
			took := int64(time.Since(began))
			s.tr.endOp(sp, err)
			cancel()
			if err != nil {
				continue
			}
			if res.Changed {
				st.mu.Lock()
				st.reconfig = append(st.reconfig, took)
				st.mu.Unlock()
			}
			done = res.Epoch.Contains(nodeset.ID(victim)) == readmit
			if done && readmit && res.Stale.Contains(nodeset.ID(victim)) {
				stale = append(stale, readmitted{s.nodes[victim].Item(s.names[it]), time.Now()})
			}
		}
		if !done && readmit {
			st.mu.Lock()
			st.unreadmit++
			st.mu.Unlock()
		}
	}
	return stale
}

// watchCatchup polls readmitted replicas every millisecond until each
// reports not stale, or catchupLimit passes.
func watchCatchup(pending []readmitted, st *churnStats) {
	for len(pending) > 0 {
		now := time.Now()
		left := pending[:0]
		for _, r := range pending {
			cur := r.it.State()
			switch {
			case !cur.Stale && !cur.Recovering:
				st.mu.Lock()
				st.catchup = append(st.catchup, int64(now.Sub(r.since)))
				st.mu.Unlock()
			case now.Sub(r.since) > catchupLimit:
				st.mu.Lock()
				st.catchupLost++
				st.mu.Unlock()
			default:
				left = append(left, r)
			}
		}
		pending = left
		if len(pending) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
}
