package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the client-visible metrics every untraced run reports;
// they exist, and are never zero, on every workload. The tail is the p90:
// the report carries p95, p99 and p999 too, but on a shared 2-CPU host the
// tcp workload's p99 swung 1.0-4.6 ms between runs whose p50 held within
// 5%, too wide for any bound a gate may have.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics are what a traced run reports. A metric of a layer the
// workload does not reach reads 0: the sim workloads have no capi,
// tcpnet or daemon layer, the benchmark cannot see inside the tcp
// workload's daemons except through their counters, and only churn
// changes epochs.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"core.op_self_p50_us", "us"},
		{"core.rounds_per_op", "count/op"},
		{"core.spec_hit_ratio", "ratio"},
		{"core.heavy_ratio", "ratio"},
		{"core.read_redraw_ratio", "ratio"},
		{"core.epoch_redirect_ratio", "ratio"},
		{"core.checkepoch_p50_ms", "ms"},
		{"transport.msgs_per_op", "count/op"},
		{"transport.call_self_p50_us", "us"},
		{"transport.failed_calls_per_op", "count/op"},
	}
	for _, k := range replicaKinds {
		m = append(m, metricDef{"replica.serve_p50_us." + k.String(), "us"})
	}
	for _, k := range replicaKinds {
		m = append(m, metricDef{"replica.serve_p99_us." + k.String(), "us"})
	}
	return append(m,
		metricDef{"replica.lock_denied_ratio", "ratio"},
		metricDef{"replica.lock_share_write_tail", "ratio"},
		metricDef{"replica.propagation_rounds_per_write", "count/op"},
		metricDef{"replica.stale_marks_per_write", "count/op"},
		metricDef{"coterie.read_quorum_size", "count"},
		metricDef{"coterie.write_quorum_size", "count"},
		metricDef{"capi.attempts_per_op", "count/op"},
		metricDef{"capi.retry_ratio", "ratio"},
		metricDef{"tcpnet.call_p50_us", "us"},
		metricDef{"tcpnet.bytes_per_op", "B/op"},
		metricDef{"tcpnet.flushes_per_op", "count/op"},
		metricDef{"tcpnet.frames_per_flush", "count"},
		metricDef{"daemon.coords_built_per_op", "count/op"},
		metricDef{"churn.reconfig_p50_ms", "ms"},
		metricDef{"churn.reconfig_p99_ms", "ms"},
		metricDef{"churn.catchup_p50_ms", "ms"},
		metricDef{"trace.ops_ratio", "ratio"},
	)
}()

// passReport is one pass (untraced or traced) of a run.
type passReport struct {
	SetupEachS        []float64          `json:"setup_each_s"`
	RSSEachMB         []float64          `json:"rss_each_mb"` // each cycle's peak, set-up to end of window
	CycleOpsPerS      []float64          `json:"cycle_ops_per_s"`
	ElapsedS          float64            `json:"elapsed_s"`
	Attempted         int                `json:"attempted"`
	Completed         int                `json:"completed"`
	Reads             int                `json:"reads"`
	Writes            int                `json:"writes"`
	Failures          reasons            `json:"failures"`
	Retried           reasons            `json:"retried"` // failed attempts sent again, not counted in failures
	OnecopyViolations int                `json:"onecopy_violations"`
	CheckS            float64            `json:"check_s"` // time to check every history
	EndToEnd          map[string]float64 `json:"end_to_end"`
	Counters          map[string]int64   `json:"counters"` // the program's own, over the windows
	Churn             *churnReport       `json:"churn,omitempty"`
}

type churnReport struct {
	Crashes        int `json:"crashes"`
	Reconfigs      int `json:"reconfigs"`
	CatchupSamples int `json:"catchup_samples"`
	NotReadmitted  int `json:"not_readmitted"`
	CatchupLost    int `json:"catchup_lost"`
}

type pass struct {
	passReport
	wins  []window // one per cycle
	churn *churnStats
}

func (p pass) correct() bool { return p.OnecopyViolations == 0 }

// build sets up a workload's system and warms it up.
func build(sp spec, seed int64, tr *tracer) (system, error) {
	if sp.Net == "tcp" {
		// A port reserved for a daemon can be taken by another socket
		// before the daemon binds it; start over on fresh ports.
		s, err := newTCPSystem(sp, tr, seed)
		for try := 1; err != nil && try < 3; try++ {
			logf("tcp set-up failed, retrying: %v", err)
			s, err = newTCPSystem(sp, tr, seed)
		}
		if err != nil {
			return nil, err
		}
		if err := s.warmUp(sp); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	s, err := newSimSystem(sp, tr)
	if err != nil {
		return nil, err
	}
	if err := s.warmUp(clientRNG(seed, clients)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// measure runs a pass: sp.Cycles times, set the system up, drive it for
// an equal share of d, check every history and tear it down. The client
// input streams run on across cycles. With a tracer it records spans
// during the windows only.
func measure(sp spec, seed int64, d time.Duration, tr *tracer) (pass, error) {
	p := pass{passReport: passReport{Counters: map[string]int64{}}}
	pick, err := newPicker(sp, seed)
	if err != nil {
		return p, err
	}
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = clientRNG(seed, c)
	}
	churnRNG := clientRNG(seed, clients+1)
	if sp.Churn {
		p.churn = &churnStats{}
	}
	for i := 0; i < sp.Cycles; i++ {
		// Collect the last cycle's cluster, histories and check now
		// rather than during this cycle's set-up and window, return the
		// memory, and start this cycle's peak from what is left.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil && i == 0 {
			logf("peak memory is not reset between cycles: %v", err)
		}
		t0 := time.Now()
		sys, err := build(sp, seed, tr)
		if err != nil {
			return p, fmt.Errorf("set-up: %w", err)
		}
		p.SetupEachS = append(p.SetupEachS, time.Since(t0).Seconds())
		p.wins = append(p.wins, p.drive(sys, sp, pick, rngs, churnRNG, d/time.Duration(sp.Cycles), tr))
		// Read before the history check, whose memory is the
		// benchmark's, not the program's.
		p.RSSEachMB = append(p.RSSEachMB, sys.peakRSSMB())
		p.Retried.merge(sys.retries())
		t1 := time.Now()
		p.OnecopyViolations += sys.checkHistories()
		p.CheckS += time.Since(t1).Seconds()
		sys.close()
	}
	p.EndToEnd = p.endToEnd()
	return p, nil
}

// drive runs one cycle's window, with the churn schedule when the
// workload has one, and adds the program's counters over it.
func (p *pass) drive(sys system, sp spec, pick picker, rngs []*rand.Rand, churnRNG *rand.Rand, d time.Duration, tr *tracer) window {
	before := sys.counters()
	if tr != nil {
		tr.on.Store(true)
	}
	done := make(chan struct{})
	if sp.Churn {
		go func() {
			defer close(done)
			sys.(*simSystem).churn(churnRNG, time.Now().Add(d), p.churn)
		}()
	} else {
		close(done)
	}
	w := runWindow(sys, sp, pick, rngs, d)
	<-done
	if tr != nil {
		tr.on.Store(false)
	}
	for name, v := range sys.counters() {
		if dv := v - before[name]; dv != 0 {
			p.Counters[name] += dv
		}
	}
	return w
}

// endToEnd derives the pass's end-to-end figures from its cycles. A
// figure is the median of the per-cycle values when every cycle has
// enough samples for it, else it is taken over all cycles pooled; a
// percentile needs ten samples beyond it either way.
func (p *pass) endToEnd() map[string]float64 {
	var (
		all    window
		sparse bool
	)
	for _, w := range p.wins {
		all.elapsed += w.elapsed
		all.reads = append(all.reads, w.reads...)
		all.writes = append(all.writes, w.writes...)
		all.attempted += w.attempted
		all.failed.merge(w.failed)
		p.CycleOpsPerS = append(p.CycleOpsPerS, w.opsPerS())
		sparse = sparse || w.completed() < 10
	}
	p.ElapsedS = all.elapsed.Seconds()
	p.Attempted, p.Completed = all.attempted, all.completed()
	p.Reads, p.Writes = len(all.reads), len(all.writes)
	p.Failures = all.failed
	e := map[string]float64{
		"setup_s":            median(p.SetupEachS),
		"ops_per_s":          all.opsPerS(),
		"rss_peak_mb":        median(p.RSSEachMB),
		"failed_frac":        ratio(float64(all.failed.total()), float64(all.attempted)),
		"onecopy_violations": float64(p.OnecopyViolations),
		"pooled.ops_per_s":   all.opsPerS(),
	}
	if !sparse {
		e["ops_per_s"] = median(p.CycleOpsPerS)
	}
	for _, kind := range []string{"read", "write"} {
		pooled := all.reads
		if kind == "write" {
			pooled = all.writes
		}
		slices.Sort(pooled)
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
			name := kind + "_" + q.suffix + "_us"
			v, ok := quantile(pooled, q.q, 10)
			if !ok {
				continue
			}
			e[name] = float64(v) / 1e3
			e["pooled."+name] = e[name]
			if m, ok := p.cycleMedian(kind, q.q); ok {
				e[name] = m / 1e3
			}
		}
	}
	if st := p.churn; st != nil {
		p.Churn = &churnReport{
			Crashes: st.crashes, Reconfigs: len(st.reconfig), CatchupSamples: len(st.catchup),
			NotReadmitted: st.unreadmit, CatchupLost: st.catchupLost,
		}
		slices.Sort(st.reconfig)
		slices.Sort(st.catchup)
		if v, ok := quantile(st.reconfig, 0.5, 10); ok {
			e["reconfig_p50_ms"] = float64(v) / 1e6
		}
		if v, ok := quantile(st.reconfig, 0.99, 10); ok {
			e["reconfig_p99_ms"] = float64(v) / 1e6
		}
		if v, ok := quantile(st.catchup, 0.5, 10); ok {
			e["catchup_p50_ms"] = float64(v) / 1e6
		}
	}
	return e
}

// cycleMedian is the median over cycles of each cycle's q-quantile of
// kind ("read" or "write") latency, when every cycle has ten samples
// beyond it.
func (p *pass) cycleMedian(kind string, q float64) (float64, bool) {
	var vals []float64
	for _, w := range p.wins {
		lat := w.reads
		if kind == "write" {
			lat = w.writes
		}
		sorted := slices.Clone(lat)
		slices.Sort(sorted)
		v, ok := quantile(sorted, q, 10)
		if !ok {
			return 0, false
		}
		vals = append(vals, float64(v))
	}
	return median(vals), true
}

// perLayer derives the per-layer metrics of a traced pass tp; un is the
// untraced pass of the same run, for the tracing overhead.
func perLayer(sp spec, tp pass, tr *tracer, un pass) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	c := func(name string) float64 { return float64(tp.Counters[name]) }
	ops := float64(tp.Attempted)
	coreOps := c("core_reads_total") + c("core_writes_total")
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	// Counter-derived: the sim registry, or the daemons' merged scrape.
	m["core.spec_hit_ratio"] = ratio(c("core_spec_prepare_hit_total"), c("core_spec_prepare_hit_total")+c("core_spec_prepare_miss_total"))
	m["core.heavy_ratio"] = ratio(c("core_heavy_procedures_total"), coreOps)
	m["core.read_redraw_ratio"] = ratio(c("core_read_redraws_total"), c("core_reads_total"))
	m["core.epoch_redirect_ratio"] = ratio(c("core_epoch_redirects_total"), coreOps)
	m["replica.lock_denied_ratio"] = ratio(c("replica_lock_denied_total"), c("replica_lock_denied_total")+c("replica_lock_granted_total"))
	m["replica.propagation_rounds_per_write"] = ratio(c("replica_propagation_rounds_total"), c("core_writes_total"))
	m["replica.stale_marks_per_write"] = ratio(c("replica_stale_marked_total"), c("core_writes_total"))
	m["trace.ops_ratio"] = ratio(tp.EndToEnd["ops_per_s"], un.EndToEnd["ops_per_s"])
	m["churn.reconfig_p50_ms"] = tp.EndToEnd["reconfig_p50_ms"]
	m["churn.reconfig_p99_ms"] = tp.EndToEnd["reconfig_p99_ms"]
	m["churn.catchup_p50_ms"] = tp.EndToEnd["catchup_p50_ms"]

	if sp.Net == "tcp" {
		frames := c("tcp_frames_sent_total") + c("client.tcp_frames_sent_total")
		flushes := c("tcp_flushes_total") + c("client.tcp_flushes_total")
		m["transport.msgs_per_op"] = ratio(frames, ops)
		m["transport.failed_calls_per_op"] = ratio(c("tcp_calls_failed_total")+c("client.tcp_calls_failed_total"), ops)
		calls := append(slices.Clone(tr.callLat[kindCapiRead].v), tr.callLat[kindCapiWrite].v...)
		m["capi.attempts_per_op"] = ratio(float64(len(calls)), ops)
		m["capi.retry_ratio"] = ratio(c("client.capi_retry_total"), ops)
		m["tcpnet.call_p50_us"] = us(p50(calls))
		m["tcpnet.bytes_per_op"] = ratio(c("tcp_bytes_sent_total")+c("client.tcp_bytes_sent_total"), ops)
		m["tcpnet.flushes_per_op"] = ratio(flushes, ops)
		m["tcpnet.frames_per_flush"] = ratio(frames, flushes)
		m["daemon.coords_built_per_op"] = ratio(c("coteried_coord_built_total"), ops)
		return m
	}
	m["core.op_self_p50_us"] = us(p50(tr.opSelf.v))
	m["core.rounds_per_op"] = ratio(float64(tr.rounds.Load()), float64(tr.ops.Load()))
	m["core.checkepoch_p50_ms"] = float64(p50(tr.checkEpoch.v)) / 1e6
	m["transport.msgs_per_op"] = ratio(float64(tr.msgs.Load()), ops)
	m["transport.call_self_p50_us"] = us(p50(tr.callSelf.v))
	m["transport.failed_calls_per_op"] = ratio(float64(tr.failedCalls.Load()), ops)
	for _, k := range replicaKinds {
		m["replica.serve_p50_us."+k.String()] = us(p50(tr.serve[k].v))
		m["replica.serve_p99_us."+k.String()] = us(p99(tr.serve[k].v))
	}
	m["replica.lock_share_write_tail"] = lockShareOfTail(tr.writeDur, tr.writeLock)
	m["coterie.read_quorum_size"] = ratio(float64(tr.readQ.Load()), float64(tr.readN.Load()))
	m["coterie.write_quorum_size"] = ratio(float64(tr.writeQ.Load()), float64(tr.writeN.Load()))
	return m
}

// lockShareOfTail is the share of the slowest 1% of writes' time that
// their lock and snap calls spent in replica serves (lock wait included).
func lockShareOfTail(dur, lock []int64) float64 {
	sorted := slices.Clone(dur)
	slices.Sort(sorted)
	cut, ok := quantile(sorted, 0.99, 0)
	if !ok {
		return 0
	}
	var total, locked float64
	for i, d := range dur {
		if d >= cut {
			total += float64(d)
			locked += float64(lock[i])
		}
	}
	return ratio(locked, total)
}
