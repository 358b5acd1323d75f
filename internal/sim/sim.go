// Package sim is a discrete-event simulator of the failure/repair process
// driving a replicated data item under the dynamic coterie protocol. It
// complements the analytic Markov chains (internal/markov) in two ways:
//
//   - validation: under the paper's Figure 3 assumptions (ModelPaper) the
//     simulated long-run unavailability must converge to the chain's
//     stationary value;
//   - ablation: ModelProtocol replaces the paper's simplified recovery rule
//     ("a 3-node epoch needs all three members") with an exact evaluation
//     of the coterie rule, exposing where the simplification bends —
//     e.g. the N=5 grid has a height-1 column whose loss blocks the epoch
//     change, and the partial-column optimization lets some 3-node and
//     even 2-node epochs survive failures.
//
// Nodes fail and repair as independent Poisson processes (rates Lambda and
// Mu); epoch checking runs either after every event (the site model's
// instantaneous-check assumption) or on a fixed period (CheckEvery > 0),
// which quantifies how the availability gain decays when checks lag behind
// failures.
package sim

import (
	"fmt"
	"math/rand"

	"coterie/internal/coterie"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
)

// Model selects the epoch-transition rule.
type Model int

const (
	// ModelPaper follows the Figure 3 analysis: any epoch of ≥ 4 nodes
	// adapts to a single failure; an epoch of exactly 3 blocks on any
	// failure and recovers only when all three members are up again.
	ModelPaper Model = iota
	// ModelProtocol evaluates the configured coterie rule exactly: the
	// epoch moves to the up-set whenever the up-set includes a write
	// quorum over the current epoch.
	ModelProtocol
)

// Config parameterizes one simulation run.
type Config struct {
	N      int
	Lambda float64 // per-node failure rate
	Mu     float64 // per-node repair rate
	Model  Model
	// Rule is the coterie rule for ModelProtocol (default coterie.Grid{}).
	Rule coterie.Rule
	// Horizon is the simulated time span.
	Horizon float64
	// CheckEvery > 0 runs epoch checks periodically instead of after every
	// failure/repair event, modeling a realistic check pulse.
	CheckEvery float64
	// AmnesiaFraction is the probability that a repair comes back with its
	// stable storage lost (ModelProtocol only). An amnesiac replica cannot
	// witness past operations, so it is excluded from quorum evaluation
	// until an epoch change — formed from a write quorum of *remembering*
	// members — readmits it. Zero models the paper's perfect stable
	// storage.
	AmnesiaFraction float64
	// Strategy names a quorum-selection strategy whose candidate
	// distribution the run additionally tracks ("optimized"; empty, "hint"
	// and "load" disable it). ModelProtocol only. The weighted strategy
	// serves from an enumerated candidate list and falls back to the full
	// rule when no candidate survives in the up-set; the Candidate*
	// results measure how much availability that distribution covers on
	// its own, i.e. how often the fallback is what keeps the system
	// available.
	Strategy string
	// Seed drives the run's randomness.
	Seed int64
	// Obs receives the run's counters (sim_events_total,
	// sim_epoch_changes_total, sim_blocks_total, sim_data_losses_total).
	// Nil (obs.Nop) disables recording.
	Obs *obs.Registry
}

// Result aggregates a run.
type Result struct {
	Time             float64 // simulated time
	WriteUnavailable float64 // time without a write quorum over the epoch
	ReadUnavailable  float64 // time without a read quorum over the epoch
	EpochChanges     int     // successful epoch adaptations
	Blocks           int     // transitions into write-unavailability
	Events           int     // failure/repair events processed
	FinalEpochSize   int
	MinEpochSize     int
	WriteUnavailFrac float64 // WriteUnavailable / Time
	ReadUnavailFrac  float64 // ReadUnavailable / Time
	// Candidate* mirror the (Read|Write)Unavailable accounting for the
	// configured weighted strategy's enumerated candidate quorums: time
	// during which no candidate survived, even if the full rule still had
	// a quorum (the engine's fallback window). Zero when Strategy is not
	// a weighted one. Fallbacks counts transitions into a state where the
	// rule could write but the candidate distribution could not.
	CandidateWriteUnavailable float64
	CandidateReadUnavailable  float64
	CandidateWriteUnavailFrac float64
	CandidateReadUnavailFrac  float64
	Fallbacks                 int
	// DataLost reports that amnesia permanently destroyed the write quorum:
	// even with every surviving remembering node up, the current epoch can
	// never re-form (the replicas that witnessed the latest state lost
	// their storage while the system was blocked). Writes never recover
	// after DataLossTime; the run keeps simulating so the unavailability
	// fractions stay meaningful.
	DataLost     bool
	DataLossTime float64
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	if cfg.N < 2 {
		return Result{}, fmt.Errorf("sim: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.Lambda <= 0 || cfg.Mu <= 0 {
		return Result{}, fmt.Errorf("sim: rates must be positive (lambda=%g, mu=%g)", cfg.Lambda, cfg.Mu)
	}
	if cfg.Horizon <= 0 {
		return Result{}, fmt.Errorf("sim: horizon must be positive, got %g", cfg.Horizon)
	}
	if cfg.Model == ModelPaper && cfg.N < 4 {
		return Result{}, fmt.Errorf("sim: the paper model needs N >= 4, got %d", cfg.N)
	}
	if cfg.AmnesiaFraction < 0 || cfg.AmnesiaFraction > 1 {
		return Result{}, fmt.Errorf("sim: amnesia fraction %g outside [0,1]", cfg.AmnesiaFraction)
	}
	if cfg.AmnesiaFraction > 0 && cfg.Model != ModelProtocol {
		return Result{}, fmt.Errorf("sim: amnesia requires ModelProtocol")
	}
	weighted := cfg.Strategy == "optimized"
	switch cfg.Strategy {
	case "", "hint", "load", "optimized":
	default:
		return Result{}, fmt.Errorf("sim: unknown strategy %q", cfg.Strategy)
	}
	if weighted && cfg.Model != ModelProtocol {
		return Result{}, fmt.Errorf("sim: strategy tracking requires ModelProtocol")
	}
	rule := cfg.Rule
	if rule == nil {
		rule = coterie.Grid{}
	}
	// Counters are resolved once per run; each site is a nil-safe Inc.
	mEvents := cfg.Obs.Counter("sim_events_total")
	mEpochChanges := cfg.Obs.Counter("sim_epoch_changes_total")
	mBlocks := cfg.Obs.Counter("sim_blocks_total")
	mDataLosses := cfg.Obs.Counter("sim_data_losses_total")
	mFallbacks := cfg.Obs.Counter("sim_strategy_fallbacks_total")
	rng := rand.New(rand.NewSource(cfg.Seed))

	all := nodeset.Range(0, nodeset.ID(cfg.N))
	up := all.Clone()
	epoch := all.Clone()
	// remembering tracks nodes whose stable state is intact; amnesiac
	// repairs leave it until an epoch change readmits them.
	remembering := all.Clone()
	// witnesses caches up ∩ remembering — the up nodes whose state can
	// vouch for past operations; quorum evaluation only counts them. It is
	// maintained incrementally as events mutate up and remembering, so the
	// hot loop never materializes the intersection.
	witnesses := all.Clone()

	res := Result{MinEpochSize: cfg.N, FinalEpochSize: cfg.N}
	now := 0.0
	nextCheck := cfg.CheckEvery

	// The rule is compiled once per epoch: quorum checks between epoch
	// changes are pure word-level mask operations with no allocations.
	// Trajectories revisit a small set of member sets (mostly the full set
	// minus a few nodes), so for N ≤ 64 compiled layouts are cached keyed
	// by the epoch's single membership word; an epoch change then costs a
	// map probe instead of a recompilation. ModelPaper never consults the
	// rule and skips compilation entirely.
	var layout *coterie.Layout
	var layoutCache map[uint64]*coterie.Layout
	if cfg.N <= 64 {
		layoutCache = make(map[uint64]*coterie.Layout)
	}
	compileLayout := func(epoch nodeset.Set) *coterie.Layout {
		if layoutCache == nil {
			return coterie.Compile(rule, epoch)
		}
		key := epoch.Word(0)
		l, ok := layoutCache[key]
		if !ok {
			l = coterie.Compile(rule, epoch)
			layoutCache[key] = l
		}
		return l
	}
	// The weighted strategy's candidate lists follow the layout: each
	// epoch change re-enumerates the quorums the solved distribution can
	// draw from (deterministic per layout, like the engine's recompute).
	var candReads, candWrites []nodeset.Set
	setLayout := func(epoch nodeset.Set) {
		layout = compileLayout(epoch)
		if weighted {
			candReads = layout.EnumerateReadQuorums(0)
			candWrites = layout.EnumerateWriteQuorums(0)
		}
	}
	anyCandidate := func(cands []nodeset.Set, avail nodeset.Set) bool {
		for _, c := range cands {
			if c.Subset(avail) {
				return true
			}
		}
		return false
	}
	if cfg.Model == ModelProtocol {
		setLayout(epoch)
	}
	writeAvailable := func() bool {
		if cfg.Model == ModelPaper {
			return up.ContainsAll(epoch) || epochAdaptablePaper(epoch, up)
		}
		return layout.IsWriteQuorum(witnesses)
	}
	readAvailable := func() bool {
		if cfg.Model == ModelPaper {
			return writeAvailable()
		}
		return layout.IsReadQuorum(witnesses)
	}
	check := func() {
		// A change is needed when membership drifted or an amnesiac up
		// node awaits readmission.
		if up.Equal(epoch) && up.Subset(remembering) {
			return
		}
		ok := false
		if cfg.Model == ModelPaper {
			ok = epochAdaptablePaper(epoch, up)
		} else {
			ok = layout.IsWriteQuorum(witnesses)
		}
		if ok {
			epoch = up.Clone()
			if cfg.Model == ModelProtocol {
				setLayout(epoch)
			}
			// The epoch change readmits recovering members. witnesses is
			// up ∩ remembering by incremental maintenance, so it only needs
			// refreshing when the readmission actually grows remembering.
			if !up.Subset(remembering) {
				remembering = remembering.Union(up)
				witnesses = up.Clone() // up ∩ (remembering ∪ up) = up
			}
			res.EpochChanges++
			mEpochChanges.Inc()
			if l := epoch.Len(); l < res.MinEpochSize {
				res.MinEpochSize = l
			}
		}
	}

	wasWriteAvail := true
	wasFallback := false
	for now < cfg.Horizon {
		nUp := up.Len()
		nDown := cfg.N - nUp
		rate := float64(nUp)*cfg.Lambda + float64(nDown)*cfg.Mu
		dt := rng.ExpFloat64() / rate
		eventTime := now + dt

		// Interleave periodic checks before the next failure/repair event.
		for cfg.CheckEvery > 0 && nextCheck <= eventTime && nextCheck <= cfg.Horizon {
			// State between events is constant, so checks between now and
			// eventTime all see the same state; one suffices.
			check()
			nextCheck += cfg.CheckEvery
		}
		if eventTime > cfg.Horizon {
			eventTime = cfg.Horizon
		}
		// Accrue availability over [now, eventTime).
		span := eventTime - now
		if !writeAvailable() {
			res.WriteUnavailable += span
		}
		if !readAvailable() {
			res.ReadUnavailable += span
		}
		if weighted {
			if !anyCandidate(candWrites, witnesses) {
				res.CandidateWriteUnavailable += span
			}
			if !anyCandidate(candReads, witnesses) {
				res.CandidateReadUnavailable += span
			}
		}
		now = eventTime
		if now >= cfg.Horizon {
			break
		}

		// Apply the failure or repair.
		x := rng.Float64() * rate
		if x < float64(nUp)*cfg.Lambda {
			k := int(x / cfg.Lambda)
			if k >= nUp { // guard against floating-point edge
				k = nUp - 1
			}
			id, _ := up.Nth(k + 1)
			up.Remove(id)
			witnesses.Remove(id)
		} else {
			k := int((x - float64(nUp)*cfg.Lambda) / cfg.Mu)
			if k >= nDown {
				k = nDown - 1
			}
			id := nthDown(cfg.N, up, k+1)
			up.Add(id)
			if remembering.Contains(id) {
				witnesses.Add(id)
			}
			if cfg.AmnesiaFraction > 0 && rng.Float64() < cfg.AmnesiaFraction {
				remembering.Remove(id)
				witnesses.Remove(id)
				// Permanent loss: if even the full remembering set can no
				// longer form a write quorum of the epoch, no future repair
				// sequence recovers the data.
				if !res.DataLost && !layout.IsWriteQuorum(remembering) {
					res.DataLost = true
					res.DataLossTime = now
					mDataLosses.Inc()
				}
			}
		}
		res.Events++
		mEvents.Inc()
		if cfg.CheckEvery <= 0 {
			check()
		}
		nowAvail := writeAvailable()
		if wasWriteAvail && !nowAvail {
			res.Blocks++
			mBlocks.Inc()
		}
		wasWriteAvail = nowAvail
		if weighted {
			fb := nowAvail && !anyCandidate(candWrites, witnesses)
			if fb && !wasFallback {
				res.Fallbacks++
				mFallbacks.Inc()
			}
			wasFallback = fb
		}
	}

	res.Time = now
	res.FinalEpochSize = epoch.Len()
	if res.Time > 0 {
		res.WriteUnavailFrac = res.WriteUnavailable / res.Time
		res.ReadUnavailFrac = res.ReadUnavailable / res.Time
		res.CandidateWriteUnavailFrac = res.CandidateWriteUnavailable / res.Time
		res.CandidateReadUnavailFrac = res.CandidateReadUnavailable / res.Time
	}
	return res, nil
}

// epochAdaptablePaper is the Figure 3 transition rule: the up-set can form
// a new epoch iff the current epoch has more than 3 members and at most one
// of them is down, or all current members are up (pure growth; also the
// recovery condition for a blocked 3-node epoch).
func epochAdaptablePaper(epoch, up nodeset.Set) bool {
	members := epoch.Len()
	downMembers := members - epoch.IntersectionLen(up)
	if downMembers == 0 {
		return true
	}
	return members >= 4 && downMembers == 1
}

// nthDown returns the k-th (1-based, in increasing ID order) node of
// {0..n-1} that is not in up, without materializing the complement set.
func nthDown(n int, up nodeset.Set, k int) nodeset.ID {
	for id := nodeset.ID(0); id < nodeset.ID(n); id++ {
		if !up.Contains(id) {
			k--
			if k == 0 {
				return id
			}
		}
	}
	panic("sim: down-node index out of range")
}
