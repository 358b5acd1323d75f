// The tcp data plane: -net tcp spawns one coteried process per cluster
// member (re-executing this binary's `coteried` subcommand) and drives the
// cluster over loopback TCP through the smart capi client — cached shard
// map, direct routing with per-item affinity, retry with jittered backoff,
// and optionally hedged reads. By default the daemons serve one shard
// whose coterie is every node (-shards 1, -rf 0), the paper's deployment;
// -shards N hashes the items across N coteries of -rf nodes each, the
// horizontal-scale story, where per-shard operation counts and p999 tails
// are first-class outputs. Two things only exist across real processes:
//
//   - Churn kills daemons with SIGKILL and respawns them with -recovering,
//     exercising the paper's recovering-replica path end to end across
//     process boundaries (crash amnesia, epoch readmission, propagation).
//   - Client operations are recorded into per-item onecopy histories and
//     checked for one-copy serializability at the end of the run. A write
//     whose outcome is ambiguous (capi.ErrAmbiguous, or an Unavailable /
//     Error disposition after the commit point may have been reached)
//     records as a MaybeWrite wildcard; a clean abort records nothing. The
//     smart client never resends an ambiguous write, which is what keeps
//     the checked histories free of duplicate commits.
//
// One-copy checking at million-item scale: recording every item's history
// would cost more memory than the cluster itself, so -check-stride k
// samples the items — every k-th item plus the 1024 hottest (Zipf rank is
// item order, so low items are hot and contended, exactly where violations
// would appear).
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"coterie/internal/capi"
	"coterie/internal/core"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/placement"
	"coterie/internal/replica"
	"coterie/internal/transport/tcpnet"
)

// reservePorts picks n distinct loopback addresses by binding ephemeral
// listeners and releasing them. Fixed addresses (not :0 per daemon) are
// required so a killed daemon's replacement can rebind the same address
// and be re-dialed transparently by everyone else.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// proc is one spawned coteried process. admin is the daemon's bound admin
// address ("" when -admin is off).
type proc struct {
	id    nodeset.ID
	cmd   *exec.Cmd
	admin string
}

// spawnDaemon re-executes this binary's coteried subcommand for node id
// and blocks until the daemon is ready to serve. Readiness is the admin
// plane's /healthz answering 200 — the daemon binds its transport listener
// before the admin listener, so a healthy admin plane implies a serving
// data plane. The stdout READY line remains the bootstrap (it carries the
// ephemeral admin port) and the whole handshake when -admin is off.
func spawnDaemon(exe string, id nodeset.ID, book map[nodeset.ID]string, cfg config, recovering bool) (*proc, error) {
	rf := cfg.rf
	if rf <= 0 {
		rf = cfg.nodes
	}
	args := []string{
		"coteried",
		"-node", strconv.Itoa(int(id)),
		"-cluster", daemon.FormatCluster(book),
		"-shards", strconv.Itoa(cfg.shards),
		"-rf", strconv.Itoa(rf),
		"-item-size", strconv.Itoa(cfg.itemSize),
		"-call-timeout", cfg.callTimeout.String(),
		"-strategy", cfg.strategy,
		"-obs=" + strconv.FormatBool(cfg.obsOn),
	}
	if cfg.maxCoords > 0 {
		args = append(args, "-max-coords", strconv.Itoa(cfg.maxCoords))
	}
	if cfg.slowRead > 0 && int(id) == cfg.slowNode {
		args = append(args, "-slow-read", cfg.slowRead.String())
	}
	if cfg.capacity != "" {
		args = append(args, "-capacity", cfg.capacity)
	}
	if cfg.batch {
		args = append(args, "-batch")
	}
	if cfg.batchProp {
		args = append(args, "-batch-prop")
	}
	if cfg.pool > 0 {
		args = append(args, "-pool", strconv.Itoa(cfg.pool))
	}
	if recovering {
		args = append(args, "-recovering")
	}
	switch {
	case cfg.pprofPort > 0:
		// A fixed port per daemon, so a profiler can be pointed at it:
		// the admin plane serves /debug/pprof.
		args = append(args, "-admin", fmt.Sprintf("127.0.0.1:%d", cfg.pprofPort+1+int(id)))
	case cfg.adminOn:
		// Ephemeral port: the READY line reports the bound address, so
		// spawner and daemon never race on port reservation.
		args = append(args, "-admin", "127.0.0.1:0")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan string, 1)
	fail := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var gotID int
			var addr, adminAddr string
			if n, _ := fmt.Sscanf(sc.Text(), "READY %d %s admin=%s", &gotID, &addr, &adminAddr); n >= 2 {
				ready <- adminAddr
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe; EOF
		// (child death) also lands here.
		for sc.Scan() {
		}
		select {
		case fail <- fmt.Errorf("node %d exited before READY", id):
		default:
		}
	}()
	p := &proc{id: id, cmd: cmd}
	select {
	case adminAddr := <-ready:
		p.admin = adminAddr
	case err := <-fail:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("node %d not READY after 15s", id)
	}
	if p.admin != "" {
		if err := waitHealthy(p.admin, 15*time.Second); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
	}
	return p, nil
}

// waitHealthy polls the daemon's /healthz until it answers 200.
func waitHealthy(adminAddr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + adminAddr + "/healthz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy at %s after %s", url, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// adminAddrs collects the live daemons' admin addresses.
func adminAddrs(procs []*proc) []string {
	var addrs []string
	for _, p := range procs {
		if p != nil && p.admin != "" {
			addrs = append(addrs, p.admin)
		}
	}
	return addrs
}

// clusterScrape scrapes every daemon's admin endpoint after a run and
// returns the cluster-merged snapshot, printing the merged protocol
// counters and a scrape health line to stderr. Returns nil when the admin
// plane is off or nothing answered.
func clusterScrape(procs []*proc) *capi.ClusterSnapshot {
	addrs := adminAddrs(procs)
	if len(addrs) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cs := capi.ScrapeCluster(ctx, nil, addrs)
	for _, err := range cs.Errs {
		fmt.Fprintf(os.Stderr, "loadgen: cluster scrape: %v\n", err)
	}
	if len(cs.Nodes) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "--- cluster summary (%d/%d daemons scraped) ---\n", len(cs.Nodes), len(addrs))
	names := make([]string, 0, len(cs.Counters))
	for name, v := range cs.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%-45s %d\n", name, cs.Counters[name])
	}
	hnames := make([]string, 0, len(cs.Hists))
	for name := range cs.Hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := cs.Hists[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "%-45s count=%d p50=%s p99=%s\n", name, h.Count,
			time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)))
	}
	return cs
}

func (p *proc) kill() {
	p.cmd.Process.Kill() // SIGKILL: a crash, not a shutdown
	p.cmd.Wait()
}

func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// statusErr maps a capi reply status back onto the client error taxonomy
// the outcome accounting understands.
func statusErr(st capi.Status, detail string) error {
	switch st {
	case capi.StatusOK:
		return nil
	case capi.StatusConflict:
		return fmt.Errorf("%w: %s", core.ErrConflict, detail)
	case capi.StatusUnavailable:
		return fmt.Errorf("%w: %s", core.ErrUnavailable, detail)
	default:
		return errors.New(detail)
	}
}

// tcpPlane drives spawned coteried daemons through one capi.Client.
type tcpPlane struct {
	cfg    config
	exe    string
	book   map[nodeset.ID]string
	net    *tcpnet.Network
	client *capi.Client
	pm     *placement.Map
	self   nodeset.ID // identity of the churn loop's direct epoch checks

	// procs is written only by the churn loop, which the workers' wait
	// group orders before finish and close read it.
	procs []*proc

	recs     *recTable
	shardOps []atomic.Int64
}

func newTCPPlane(cfg config, reg *obs.Registry) (*tcpPlane, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot self-spawn daemons: %w", err)
	}
	addrs, err := reservePorts(cfg.nodes)
	if err != nil {
		return nil, err
	}
	p := &tcpPlane{
		cfg:   cfg,
		exe:   exe,
		book:  make(map[nodeset.ID]string, cfg.nodes),
		self:  nodeset.ID(cfg.nodes + 2),
		procs: make([]*proc, cfg.nodes),
		recs:  newRecTable(cfg.itemSize, cfg.checkStride),
	}
	for i, a := range addrs {
		p.book[nodeset.ID(i)] = a
	}
	for i := range p.procs {
		if p.procs[i], err = spawnDaemon(exe, nodeset.ID(i), p.book, cfg, false); err != nil {
			p.close()
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d coteried daemons up (%s)\n", cfg.nodes, daemon.FormatCluster(p.book))

	var topts []tcpnet.Option
	if reg != obs.Nop {
		topts = append(topts, tcpnet.WithObs(reg))
	}
	if cfg.pool > 0 {
		topts = append(topts, tcpnet.WithPoolSize(cfg.pool))
	}
	p.net = tcpnet.New(p.book, topts...)
	seeds := make([]nodeset.ID, cfg.nodes)
	for i := range seeds {
		seeds[i] = nodeset.ID(i)
	}
	p.client, err = capi.NewClient(p.net, capi.ClientConfig{
		Self:        nodeset.ID(cfg.nodes + 1),
		Seeds:       seeds,
		OpTimeout:   cfg.timeout,
		CallTimeout: cfg.callTimeout,
		Hedge:       cfg.hedge,
		Obs:         reg,
		Seed:        uint64(cfg.seed),
		TraceSample: cfg.traceSample,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = p.client.Refresh(ctx)
	cancel()
	if err != nil {
		p.close()
		return nil, fmt.Errorf("shard map bootstrap: %w", err)
	}
	p.pm = p.client.Map()
	p.shardOps = make([]atomic.Int64, p.pm.NumShards())
	fmt.Fprintf(os.Stderr, "loadgen: shard map v%d: %d shards rf=%d across %d nodes\n",
		p.pm.Version(), p.pm.NumShards(), p.pm.RF(), p.pm.Nodes().Len())
	return p, nil
}

// begin names item, counts it against its shard and opens its history
// record (nil when the item is outside the checked sample).
func (p *tcpPlane) begin(item int) (name string, rec *onecopy.Recorder, opStart uint64) {
	name = keyName(item)
	p.shardOps[p.pm.ShardOf(name)].Add(1)
	if rec = p.recs.get(uint64(item)); rec != nil {
		opStart = rec.Begin()
	}
	return name, rec, opStart
}

func (p *tcpPlane) read(ctx context.Context, item, _ int) error {
	name, rec, opStart := p.begin(item)
	reply, err := p.client.Read(ctx, name)
	if err == nil {
		err = statusErr(reply.Status, reply.Detail)
	}
	if err == nil && rec != nil {
		rec.EndRead(opStart, reply.Version, reply.Value)
	}
	return err
}

func (p *tcpPlane) write(ctx context.Context, item, _ int, u replica.Update) error {
	name, rec, opStart := p.begin(item)
	if rec != nil {
		u.Data = bytes.Clone(u.Data) // recorded histories own their bytes
	}
	reply, err := p.client.Write(ctx, name, u)
	ambiguous := errors.Is(err, capi.ErrAmbiguous)
	if err == nil {
		err = statusErr(reply.Status, reply.Detail)
		// Anything but a clean conflict abort may have begun the commit.
		ambiguous = err != nil && reply.Status != capi.StatusConflict
	}
	if rec != nil {
		switch {
		case err == nil:
			rec.EndWrite(opStart, reply.Version, u)
		case ambiguous:
			// The commit may have begun; the checker must allow both.
			rec.EndMaybeWrite(opStart, u)
		}
		// Otherwise a clean client-side failure (conflict abort, routing,
		// deadline between attempts): nothing dispatched could still
		// commit, nothing to record.
	}
	return err
}

// checkEpoch goes straight to node rather than through the client's
// routing, so the churn loop can steer it to a survivor; churn runs only
// with one shard over every node, so node owns every item.
func (p *tcpPlane) checkEpoch(ctx context.Context, item, node int) {
	_, _ = p.net.Call(ctx, p.self, nodeset.ID(node), capi.CheckEpoch{Item: keyName(item)})
}

func (p *tcpPlane) crash(node int) {
	p.procs[node].kill()
	p.procs[node] = nil
}

func (p *tcpPlane) restart(node int) error {
	pr, err := spawnDaemon(p.exe, nodeset.ID(node), p.book, p.cfg, true)
	if err != nil {
		return fmt.Errorf("respawn of node %d failed: %w", node, err)
	}
	p.procs[node] = pr
	return nil
}

func (p *tcpPlane) finish(res *result) error {
	hedge := p.cfg.hedge
	res.Hedge = &hedge
	res.Shards, res.RF = p.pm.NumShards(), p.pm.RF()
	res.PerShardOps = make([]int64, len(p.shardOps))
	for i := range p.shardOps {
		res.PerShardOps[i] = p.shardOps[i].Load()
	}
	cs := p.client.Stats()
	res.Client = &cs

	checked, violations := p.recs.check()
	res.CheckedKeys = checked
	res.OneCopyViolations = &violations
	if violations == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: one-copy serializability verified on %d sampled items (%d distinct items, %d ops)\n",
			checked, res.DistinctKeys, res.Ops)
	}
	fmt.Fprintf(os.Stderr, "loadgen: client retries=%d hedges=%d hedge_wins=%d hedge_canceled=%d wrong_shard=%d map_refresh=%d traces=%d\n",
		cs.Retries, cs.Hedges, cs.HedgeWins, cs.HedgeCanceled, cs.WrongShard, cs.MapRefresh, cs.TracesSampled)
	printShardSpread(os.Stderr, res.PerShardOps)

	if ccs := clusterScrape(p.procs); ccs != nil {
		res.ClusterMetrics = nonZeroCounters(ccs.Counters)
	}
	if violations > 0 {
		return fmt.Errorf("%d one-copy serializability violations", violations)
	}
	return nil
}

func (p *tcpPlane) close() {
	if p.net != nil {
		p.net.Close()
	}
	for _, pr := range p.procs {
		if pr != nil {
			pr.stop()
		}
	}
}

// nonZeroCounters filters the merged counter map down to the counters that
// actually moved, for the JSON report.
func nonZeroCounters(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for name, v := range m {
		if v != 0 {
			out[name] = v
		}
	}
	return out
}

// recTable is the lazy, striped one-copy recorder table. Stride-sampled
// keys (plus the hottest 1024) get a recorder on first touch; everything
// else reads/writes unrecorded. 64 stripes keep the lookup off any single
// lock in the worker hot path.
type recTable struct {
	stride   uint64
	itemSize int
	stripes  [64]recStripe
}

type recStripe struct {
	mu sync.Mutex
	m  map[uint64]*onecopy.Recorder
}

func newRecTable(itemSize, stride int) *recTable {
	t := &recTable{stride: uint64(stride), itemSize: itemSize}
	if t.stride == 0 {
		t.stride = 1
	}
	for i := range t.stripes {
		t.stripes[i].m = make(map[uint64]*onecopy.Recorder)
	}
	return t
}

// get returns key's recorder, creating it on first touch, or nil when the
// key falls outside the checked sample.
func (t *recTable) get(key uint64) *onecopy.Recorder {
	if t.stride > 1 && key >= 1024 && key%t.stride != 0 {
		return nil
	}
	s := &t.stripes[key&63]
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.m[key]
	if r == nil {
		r = onecopy.NewRecorder(make([]byte, t.itemSize))
		s.m[key] = r
	}
	return r
}

// check verifies every recorded history and returns how many keys were
// checked and how many violated one-copy serializability.
func (t *recTable) check() (checked, violations int) {
	for i := range t.stripes {
		s := &t.stripes[i]
		for key, rec := range s.m {
			checked++
			if err := rec.Check(); err != nil {
				violations++
				fmt.Fprintf(os.Stderr, "loadgen: ONE-COPY VIOLATION %s: %v\n", keyName(int(key)), err)
			}
		}
	}
	return checked, violations
}

// printShardSpread summarizes per-shard load balance on stderr: min, max,
// and the max/mean imbalance factor.
func printShardSpread(w *os.File, shardOps []int64) {
	if len(shardOps) == 0 {
		return
	}
	var total, max int64
	min := shardOps[0]
	for _, n := range shardOps {
		total += n
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	mean := float64(total) / float64(len(shardOps))
	imb := 0.0
	if mean > 0 {
		imb = float64(max) / mean
	}
	fmt.Fprintf(w, "loadgen: shard spread: %d shards, ops min=%d max=%d mean=%.0f (max/mean %.2fx)\n",
		len(shardOps), min, max, mean, imb)
}
