package model

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/sim"
)

// Refinement metrics, registered on the obs default registry. Iterations,
// edits, verify rounds and abandoned prefixes are counted live, where
// they happen, so /metrics shows a run's progress; runs and the
// iterations-per-run histogram are recorded when Refine returns.
var (
	mRefines    = obs.GetCounter("refine_runs_total", "Refine invocations")
	mIterations = obs.GetCounter("refine_iterations_total", "refinement iterations executed")
	mFiltersAdd = obs.GetCounter("refine_filters_added_total", "export filters installed")
	mFiltersDel = obs.GetCounter("refine_filters_removed_total", "export filters deleted (Figure 7)")
	mMEDRules   = obs.GetCounter("refine_med_rules_total", "import-MED preferences installed")
	mLPRules    = obs.GetCounter("refine_local_pref_rules_total", "import local-pref rules installed (E10c ablation)")
	mQRsAdded   = obs.GetCounter("refine_quasi_routers_added_total", "quasi-router duplications")
	mVerifies   = obs.GetCounter("refine_verify_rounds_total", "verify-and-reopen sweeps")
	mDivergedPx = obs.GetCounter("refine_diverged_prefixes_total", "training prefixes abandoned due to divergence")
	mIterPerRun = obs.GetHistogram("refine_iterations_per_run", "iterations needed per Refine call",
		obs.ExpBuckets(1, 2, 10))
	mQuarantined = obs.GetCounter("refine_quarantined_prefixes_total", "prefixes quarantined on first divergence (pending escalated retry)")
	mQRetries    = obs.GetCounter("refine_quarantine_retries_total", "escalated-budget retries of quarantined prefixes")
	mQRecovered  = obs.GetCounter("refine_quarantine_recovered_total", "quarantined prefixes that converged under the escalated budget")
	mCheckpoints = obs.GetCounter("refine_checkpoints_written_total", "refinement checkpoints written")
	mCkptIter    = obs.GetGauge("refine_checkpoint_iteration", "iteration of the most recent checkpoint")
	mInterrupts  = obs.GetCounter("refine_interrupted_total", "refinements stopped by context cancellation")
)

// quarantineRetryFactor scales the message budget for the single
// escalated retry of a quarantined prefix: generous enough to absorb a
// budget set marginally too low, cheap enough that a genuine policy
// oscillation (which never converges) wastes bounded work.
const quarantineRetryFactor = 4

// RefineConfig controls the iterative refinement heuristic. The zero value
// is the paper's configuration: quasi-router duplication enabled, policies
// realised as export filters plus MED ranking.
type RefineConfig struct {
	// MaxIterations bounds the outer refinement loop; 0 selects an
	// automatic budget (a small multiple of the longest observed AS-path,
	// matching the paper's convergence observation in §4.6).
	MaxIterations int
	// DisableDuplication turns off quasi-router duplication (ablation
	// E10a): only policies on the single-router topology remain.
	DisableDuplication bool
	// DisableMED turns off MED ranking (ablation E10b): only export
	// filters are installed, so equal-length contenders are resolved by
	// the router-ID tie-break alone.
	DisableMED bool
	// UseLocalPref replaces filters+MED by local-pref raising (ablation
	// E10c). The paper reports this approach caused divergence; the
	// engine's message budget detects it.
	UseLocalPref bool
	// Deprecated: Workers is ignored; refinement runs on one sequential
	// path (DESIGN.md §5 "Why refinement is sequential").
	Workers int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...interface{})
	// Observer, when set, receives one RefineEvent per refinement
	// iteration (plus verify-sweep and final events). The event stream is
	// deterministic for a given (dataset, seed): it carries no wall-clock
	// time, and all counts derive from the deterministic refinement walk,
	// so identical runs produce identical streams (feed it to an
	// obs.TraceSink for a replayable refine-trace.jsonl).
	Observer func(RefineEvent)
	// Checkpoint enables periodic crash-safe checkpointing of the
	// refinement state; the zero value disables it. See CheckpointConfig.
	Checkpoint CheckpointConfig

	// forceDiverge, when non-nil, makes the next n simulation runs of
	// each listed prefix report a synthetic divergence (test seam for the
	// quarantine path; counts are decremented per run).
	forceDiverge map[bgp.PrefixID]int
}

// RefineActionCounts tallies refinement actions by type (§4.6 / Figure
// 6-7 vocabulary) — either for one iteration or cumulatively.
type RefineActionCounts struct {
	// Reservations counts quasi-routers reserved because they already
	// RIB-Out matched a requirement (heuristic action (i)).
	Reservations int `json:"reservations"`
	// FiltersAdded counts export denies installed at announcing neighbors.
	FiltersAdded int `json:"filters_added"`
	// FiltersRemoved counts export-deny deletions (Figure 7).
	FiltersRemoved int `json:"filters_removed"`
	// MEDRules counts import-MED preferences installed.
	MEDRules int `json:"med_rules"`
	// LocalPrefRules counts import local-pref rules (E10c ablation only).
	LocalPrefRules int `json:"local_pref_rules"`
	// Duplications counts quasi-router duplications.
	Duplications int `json:"duplications"`
}

func (a *RefineActionCounts) add(b RefineActionCounts) {
	a.Reservations += b.Reservations
	a.FiltersAdded += b.FiltersAdded
	a.FiltersRemoved += b.FiltersRemoved
	a.MEDRules += b.MEDRules
	a.LocalPrefRules += b.LocalPrefRules
	a.Duplications += b.Duplications
}

// actionSnapshot captures the res-side action counters so per-iteration
// deltas can be diffed out.
func actionSnapshot(res *RefineResult) RefineActionCounts {
	return RefineActionCounts{
		FiltersAdded:   res.FiltersAdded,
		FiltersRemoved: res.FiltersRemoved,
		MEDRules:       res.MEDRules,
		LocalPrefRules: res.LocalPrefRules,
		Duplications:   res.QuasiRoutersAdded,
	}
}

func (a RefineActionCounts) diff(before RefineActionCounts) RefineActionCounts {
	return RefineActionCounts{
		Reservations:   a.Reservations - before.Reservations,
		FiltersAdded:   a.FiltersAdded - before.FiltersAdded,
		FiltersRemoved: a.FiltersRemoved - before.FiltersRemoved,
		MEDRules:       a.MEDRules - before.MEDRules,
		LocalPrefRules: a.LocalPrefRules - before.LocalPrefRules,
		Duplications:   a.Duplications - before.Duplications,
	}
}

// RefineEvent is one structured trace event of the refinement loop. The
// match counts classify every training requirement against the converged
// simulation state at the start of the iteration, mirroring §4.2's path
// metrics at requirement granularity; they are cumulative thresholds:
// RIBIn >= Potential >= RIBOut.
type RefineEvent struct {
	// Type is "iteration" (one per inner refinement iteration), "verify"
	// (one per verify-and-reopen sweep), "quarantine" (a prefix's
	// propagation diverged and was parked), "retry" (a quarantined prefix
	// re-opened under an escalated budget), "diverged" (the retry also
	// diverged; abandoned for good), "checkpoint" (state written to disk)
	// or "done" (final summary).
	Type string `json:"type"`
	// Iteration is the 1-based refinement iteration count so far.
	Iteration int `json:"iteration"`
	// Prefix bookkeeping: open (still being refined), settled (done and
	// RIB-Out matched), stuck (done but unmatched), diverged (abandoned).
	PrefixesOpen     int `json:"prefixes_open"`
	PrefixesSettled  int `json:"prefixes_settled"`
	PrefixesStuck    int `json:"prefixes_stuck"`
	PrefixesDiverged int `json:"prefixes_diverged"`
	// PrefixesQuarantined counts prefixes parked awaiting their escalated
	// retry.
	PrefixesQuarantined int `json:"prefixes_quarantined,omitempty"`
	// PrefixesReopened is only set on "verify" events: how many settled
	// prefixes the topology growth broke.
	PrefixesReopened int `json:"prefixes_reopened,omitempty"`
	// Requirements is the total number of (AS, suffix) requirements.
	Requirements int `json:"requirements"`
	// RIBOutMatched counts requirements some quasi-router RIB-Out
	// matches; PotentialMatched additionally admits requirements that
	// lost only the final router-ID tie-break; RIBInMatched additionally
	// admits any RIB-In presence (the upper bound on what policies could
	// achieve).
	RIBOutMatched    int     `json:"rib_out_matched"`
	PotentialMatched int     `json:"potential_matched"`
	RIBInMatched     int     `json:"rib_in_matched"`
	RIBOutFrac       float64 `json:"rib_out_frac"`
	PotentialFrac    float64 `json:"potential_frac"`
	RIBInFrac        float64 `json:"rib_in_frac"`
	// Actions tallies this event's refinement actions by type;
	// CumulativeActions tallies everything since Refine started.
	Actions           RefineActionCounts `json:"actions"`
	CumulativeActions RefineActionCounts `json:"cumulative_actions"`
	// QuasiRouters is the current model topology size.
	QuasiRouters int `json:"quasi_routers"`
	// SimRuns and SimMessages count the propagation runs of this event's
	// work and the messages they delivered; set on "iteration" and
	// "verify" events. A verify sweep counts only the settled prefixes it
	// re-ran (see verifySweep).
	SimRuns     int `json:"sim_runs,omitempty"`
	SimMessages int `json:"sim_messages,omitempty"`
	// VerifyRound is set on "verify" events (1-based).
	VerifyRound int `json:"verify_round,omitempty"`
	// Converged is set on the "done" event.
	Converged bool `json:"converged,omitempty"`
	// Prefix names the subject of quarantine/retry/diverged events;
	// Messages and Budget carry the divergence context (messages consumed
	// vs. allowed), RetryBudget the escalated budget on retry events.
	Prefix      string `json:"prefix,omitempty"`
	Messages    int    `json:"messages,omitempty"`
	Budget      int    `json:"budget,omitempty"`
	RetryBudget int    `json:"retry_budget,omitempty"`
	// Checkpoint is the file path written, on "checkpoint" events.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// RefineResult reports what the refinement did.
type RefineResult struct {
	// Iterations is the number of outer iterations executed.
	Iterations int
	// Converged is true when every training requirement ended RIB-Out
	// matched.
	Converged bool
	// QuasiRoutersAdded counts duplications performed.
	QuasiRoutersAdded int
	// FiltersAdded / FiltersRemoved count export-deny installs and
	// deletions (§4.6 filter deletion, Figure 7).
	FiltersAdded   int
	FiltersRemoved int
	// MEDRules counts import-MED preferences installed.
	MEDRules int
	// LocalPrefRules counts import local-pref rules (UseLocalPref only).
	LocalPrefRules int
	// UnsatisfiedRequirements counts (AS, suffix) requirements that could
	// not be RIB-Out matched within the budget.
	UnsatisfiedRequirements int
	// SkippedPrefixes counts training prefixes outside the model universe
	// or without an origin AS in the model.
	SkippedPrefixes int
	// DivergedPrefixes counts prefixes abandoned because propagation
	// diverged (possible only with UseLocalPref).
	DivergedPrefixes int
	// MaxPathLen is the longest observed AS-path in the training set; the
	// paper expects Iterations to be a small multiple of it (§4.6).
	MaxPathLen int
	// VerifyRounds counts verify-and-reopen rounds (see Refine).
	VerifyRounds int
	// Quarantined records every prefix whose propagation ever diverged:
	// its divergence context and whether the escalated retry recovered
	// it. DivergedPrefixes counts only the unrecovered ones.
	Quarantined []QuarantineRecord
	// Checkpoints counts checkpoints written during this run and
	// LastCheckpoint is the most recent path ("" when disabled).
	Checkpoints    int
	LastCheckpoint string
	// ResumedFrom is the iteration the run was restored at by
	// ResumeRefine (0 for a fresh run).
	ResumedFrom int
}

// QuarantineRecord describes one divergence-quarantined prefix.
type QuarantineRecord struct {
	// Prefix is the prefix name.
	Prefix string `json:"prefix"`
	// Messages and Budget are the divergence context of the most recent
	// failed run (the escalated retry, if it happened).
	Messages int `json:"messages"`
	Budget   int `json:"budget"`
	// RetryBudget is the escalated budget the retry ran under (0 when
	// the iteration budget ran out before the retry phase).
	RetryBudget int `json:"retry_budget,omitempty"`
	// Recovered is true when the retry converged and the prefix rejoined
	// normal refinement.
	Recovered bool `json:"recovered"`
}

// requirement: the AS must have a quasi-router whose best route for the
// prefix carries exactly this AS-path suffix.
type requirement struct {
	as     bgp.ASN
	suffix bgp.Path
	key    bgp.PathKey
}

type prefixWork struct {
	id     bgp.PrefixID
	reqs   []requirement
	done   bool // no further processing (satisfied, stuck, or diverged)
	ok     bool // fully RIB-Out matched
	gaveUp bool // propagation diverged even after the escalated retry

	quarantined bool                 // diverged once; parked awaiting the retry phase
	retried     bool                 // the one escalated retry has been spent
	budget      int                  // per-prefix message budget override (0 = default)
	div         *sim.DivergenceError // most recent divergence context

	// routers is the quasi-router count when the prefix last ran (0 if
	// it has not run in this process). The verify sweep skips a settled
	// prefix whose count is still current.
	routers int

	// Last observed requirement match counts (observer only); cumulative
	// thresholds: ribIn >= potential >= ribOut.
	ribOut    int
	potential int
	ribIn     int
}

// Refine runs the iterative refinement heuristic (§4.6) until every
// observed AS-path of the training set is RIB-Out matched, the model
// stops changing, or the iteration budget is exhausted.
//
// Policies are per-prefix and cannot interfere across prefixes, but
// quasi-router duplications change the shared topology: a new quasi-router
// advertises routes for every prefix and can invalidate previously
// satisfied ones. Refine therefore runs to a fixpoint: the inner loop
// settles every prefix, then a verification sweep re-simulates the
// settled prefixes that ran before the latest duplication and re-opens
// any the topology growth broke, until a sweep finds nothing broken (or
// the iteration budget runs out).
func (m *Model) Refine(train *dataset.Dataset, cfg RefineConfig) (*RefineResult, error) {
	return m.RefineContext(context.Background(), train, cfg)
}

// RefineContext is Refine with cancellation. Interrupts are honoured at
// iteration boundaries only — the in-flight iteration always completes —
// so the model and worklist are in a consistent, checkpointable state
// when the run stops. On cancellation a final checkpoint is written (if
// checkpointing is enabled) and a *InterruptedError is returned carrying
// the iteration reached, the settled-prefix count and the checkpoint
// path.
func (m *Model) RefineContext(ctx context.Context, train *dataset.Dataset, cfg RefineConfig) (*RefineResult, error) {
	return newRefineRun(m, train, cfg).run(ctx)
}

// refineRun is the in-flight state of one refinement: everything a
// checkpoint must capture to resume (iteration counter, cumulative
// action tally, per-prefix worklist) plus the model itself.
type refineRun struct {
	m         *Model
	cfg       RefineConfig
	res       *RefineResult
	works     []*prefixWork
	maxIter   int
	iter      int
	cum       RefineActionCounts
	sim       simWork // since the current iteration or verify sweep began
	observing bool
	// span is the run's "model.refine" span (nil without a recorder);
	// iteration and verify-sweep child spans hang off it. Not part of the
	// checkpointable state.
	span *obs.Span
}

// simWork tallies propagation runs and the messages they delivered.
type simWork struct{ runs, messages int }

func (s *simWork) add(messages int) {
	s.runs++
	s.messages += messages
}

func newRefineRun(m *Model, train *dataset.Dataset, cfg RefineConfig) *refineRun {
	res := &RefineResult{}
	works, maxLen := m.buildWork(train, res)
	res.MaxPathLen = maxLen
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 4*maxLen + 8
	}
	return &refineRun{m: m, cfg: cfg, res: res, works: works, maxIter: maxIter, observing: cfg.Observer != nil}
}

func (rr *refineRun) name(w *prefixWork) string { return rr.m.Universe.Name(w.id) }

func (rr *refineRun) settledCount() int {
	n := 0
	for _, w := range rr.works {
		if w.done && w.ok {
			n++
		}
	}
	return n
}

// emit fills the shared bookkeeping of a RefineEvent from the works and
// the cumulative action tally, then hands it to the observer.
func (rr *refineRun) emit(ev RefineEvent) {
	ev.Iteration = rr.res.Iterations
	ev.CumulativeActions = rr.cum
	ev.QuasiRouters = rr.m.Net.NumRouters()
	for _, w := range rr.works {
		ev.Requirements += len(w.reqs)
		ev.RIBOutMatched += w.ribOut
		ev.PotentialMatched += w.potential
		ev.RIBInMatched += w.ribIn
		switch {
		case w.gaveUp:
			ev.PrefixesDiverged++
		case w.quarantined:
			ev.PrefixesQuarantined++
		case !w.done:
			ev.PrefixesOpen++
		case w.ok:
			ev.PrefixesSettled++
		default:
			ev.PrefixesStuck++
		}
	}
	if ev.Requirements > 0 {
		n := float64(ev.Requirements)
		ev.RIBOutFrac = float64(ev.RIBOutMatched) / n
		ev.PotentialFrac = float64(ev.PotentialMatched) / n
		ev.RIBInFrac = float64(ev.RIBInMatched) / n
	}
	rr.cfg.Observer(ev)
}

// runPrefix propagates one work item, honouring its per-prefix budget
// override (escalated retries) and the forceDiverge test seam.
func (rr *refineRun) runPrefix(w *prefixWork) error {
	if rr.cfg.forceDiverge != nil {
		if n := rr.cfg.forceDiverge[w.id]; n > 0 {
			rr.cfg.forceDiverge[w.id] = n - 1
			budget := w.budget
			if budget == 0 {
				budget = 1000
			}
			return &sim.DivergenceError{Prefix: w.id, Messages: budget + 1, Budget: budget}
		}
	}
	err := rr.m.runPrefixBudget(context.Background(), w.id, w.budget)
	rr.sim.add(rr.m.Net.LastRunStats().Messages)
	w.routers = rr.m.Net.NumRouters()
	return err
}

// quarantine handles a divergence of w: the first one parks the prefix
// for the retry phase; a divergence after the escalated retry abandons
// it for good.
func (rr *refineRun) quarantine(w *prefixWork, derr *sim.DivergenceError) {
	w.done = true
	w.ok = false
	w.div = derr
	w.ribOut, w.potential, w.ribIn = 0, 0, 0
	if !w.retried {
		w.quarantined = true
		mQuarantined.Inc()
		if rr.cfg.Logf != nil {
			rr.cfg.Logf("refine: prefix %s diverged (%d messages, budget %d); quarantined",
				rr.name(w), derr.Messages, derr.Budget)
		}
		if rr.observing {
			rr.emit(RefineEvent{Type: "quarantine", Prefix: rr.name(w), Messages: derr.Messages, Budget: derr.Budget})
		}
		return
	}
	w.quarantined = false
	w.gaveUp = true
	rr.res.DivergedPrefixes++
	mDivergedPx.Inc()
	if rr.cfg.Logf != nil {
		rr.cfg.Logf("refine: prefix %s diverged again under escalated budget %d; giving up",
			rr.name(w), derr.Budget)
	}
	if rr.observing {
		rr.emit(RefineEvent{Type: "diverged", Prefix: rr.name(w), Messages: derr.Messages, Budget: derr.Budget})
	}
}

// retryQuarantined re-opens every quarantined prefix once, under an
// escalated message budget, and reports how many it re-opened.
func (rr *refineRun) retryQuarantined() int {
	n := 0
	for _, w := range rr.works {
		if !w.quarantined {
			continue
		}
		w.quarantined = false
		w.retried = true
		w.done = false
		w.ok = false
		w.budget = w.div.Budget * quarantineRetryFactor
		n++
		mQRetries.Inc()
		if rr.cfg.Logf != nil {
			rr.cfg.Logf("refine: retrying quarantined prefix %s with budget %d", rr.name(w), w.budget)
		}
		if rr.observing {
			rr.emit(RefineEvent{Type: "retry", Prefix: rr.name(w), RetryBudget: w.budget})
		}
	}
	return n
}

// verifySweep re-simulates the settled prefixes that last ran before a
// quasi-router was added and re-opens the ones that topology growth
// broke, returning how many it re-opened. A prefix's run depends only on
// the quasi-router topology and its own policies; refine edits a
// prefix's policies only while it is open, and routers are only ever
// added (Model.DuplicateQR), so a settled prefix whose last run saw the
// current router count would run to the same state and is skipped.
func (rr *refineRun) verifySweep(span *obs.Span) (int, error) {
	routers := rr.m.Net.NumRouters()
	ran, reopened := 0, 0
	for _, w := range rr.works {
		if !w.done || w.gaveUp || !w.ok || w.routers == routers {
			continue
		}
		ran++
		if err := rr.runPrefix(w); err != nil {
			if errors.Is(err, sim.ErrDiverged) {
				w.ok = false
				continue
			}
			return 0, err
		}
		if rr.observing {
			w.ribOut, w.potential, w.ribIn = rr.m.matchCounts(w)
		}
		if rr.m.countUnsatisfied(w) > 0 {
			w.done = false
			w.ok = false
			reopened++
		}
	}
	span.Set(obs.A("prefixes", ran))
	return reopened, nil
}

// maybeCheckpoint writes a checkpoint if checkpointing is enabled and
// either force is set (cancellation) or the iteration interval elapsed.
// ctx bounds the retry backoff of the write itself: periodic calls pass
// the live refine ctx (a cancel aborts the backoff and the interrupt
// path takes over), the final forced checkpoint passes a
// non-cancelable ctx so it still retries transients after cancel.
func (rr *refineRun) maybeCheckpoint(ctx context.Context, force bool) error {
	cc := rr.cfg.Checkpoint
	if cc.Path == "" {
		return nil
	}
	every := cc.Every
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if !force && rr.iter%every != 0 {
		return nil
	}
	if err := WriteCheckpointFileCtx(ctx, cc.Path, rr.snapshot()); err != nil {
		return fmt.Errorf("model: writing checkpoint: %w", err)
	}
	rr.res.Checkpoints++
	rr.res.LastCheckpoint = cc.Path
	mCheckpoints.Inc()
	mCkptIter.Set(int64(rr.iter))
	if rr.observing {
		rr.emit(RefineEvent{Type: "checkpoint", Checkpoint: cc.Path})
	}
	return nil
}

// checkInterrupt returns a *InterruptedError (after a best-effort final
// checkpoint) when ctx has been canceled; refinement calls it at
// iteration boundaries only, so the stored state is always consistent.
func (rr *refineRun) checkInterrupt(ctx context.Context) error {
	cause := ctx.Err()
	if cause == nil {
		return nil
	}
	mInterrupts.Inc()
	if err := rr.maybeCheckpoint(context.WithoutCancel(ctx), true); err != nil {
		cause = errors.Join(cause, err)
	}
	return &InterruptedError{
		Op:         "refine",
		Iterations: rr.res.Iterations,
		Prefixes:   rr.settledCount(),
		Checkpoint: rr.res.LastCheckpoint,
		Err:        cause,
	}
}

func (rr *refineRun) run(ctx context.Context) (*RefineResult, error) {
	m, res, cfg := rr.m, rr.res, rr.cfg
	_, span := obs.StartSpan(ctx, "model.refine",
		obs.A("prefixes", len(rr.works)), obs.A("max_iterations", rr.maxIter))
	defer span.End()
	rr.span = span
	for rr.iter < rr.maxIter {
		// Inner loop: settle every open prefix.
		for rr.iter < rr.maxIter {
			if err := rr.checkInterrupt(ctx); err != nil {
				return nil, err
			}
			rr.iter++
			res.Iterations = rr.iter
			mIterations.Inc() // live, so /metrics shows mid-run progress
			iterSpan := span.StartChild("iteration", obs.A("iteration", rr.iter))
			before := actionSnapshot(res)
			rr.sim = simWork{}
			reservations := 0
			changedAny := false
			pending := 0
			for _, w := range rr.works {
				if w.done {
					continue
				}
				if err := rr.runPrefix(w); err != nil {
					var derr *sim.DivergenceError
					if errors.As(err, &derr) {
						rr.quarantine(w, derr)
						continue
					}
					return nil, err
				}
				if rr.observing {
					w.ribOut, w.potential, w.ribIn = m.matchCounts(w)
				}
				changed, satisfied, resv := m.refinePrefix(w, cfg, res)
				reservations += resv
				if changed {
					changedAny = true
					pending++
					continue
				}
				w.done = true
				w.ok = satisfied
			}
			if cfg.Logf != nil {
				cfg.Logf("refine: iteration %d: %d prefixes changed, %d quasi-routers, %d filters",
					rr.iter, pending, m.Net.NumRouters(), res.FiltersAdded-res.FiltersRemoved)
			}
			actions := actionSnapshot(res).diff(before)
			actions.Reservations = reservations
			iterSpan.Set(
				obs.A("changed", pending),
				obs.A("reservations", actions.Reservations),
				obs.A("filters_added", actions.FiltersAdded),
				obs.A("filters_removed", actions.FiltersRemoved),
				obs.A("med_rules", actions.MEDRules),
				obs.A("local_pref_rules", actions.LocalPrefRules),
				obs.A("duplications", actions.Duplications),
				obs.A("quasi_routers", m.Net.NumRouters()))
			iterSpan.End()
			if rr.observing {
				rr.cum.add(actions)
				rr.emit(RefineEvent{Type: "iteration", Actions: actions,
					SimRuns: rr.sim.runs, SimMessages: rr.sim.messages})
			}
			if err := rr.maybeCheckpoint(ctx, false); err != nil {
				// A cancel that lands mid-backoff aborts the periodic
				// write; hand over to the interrupt path, which retries
				// the final checkpoint under a non-cancelable ctx.
				if ctx.Err() != nil {
					if ierr := rr.checkInterrupt(ctx); ierr != nil {
						return nil, ierr
					}
				}
				return nil, err
			}
			if !changedAny {
				break
			}
		}
		if err := rr.checkInterrupt(ctx); err != nil {
			return nil, err
		}
		// Verification sweep: re-open settled prefixes that later
		// topology growth invalidated.
		res.VerifyRounds++
		mVerifies.Inc()
		vspan := span.StartChild("verify", obs.A("round", res.VerifyRounds))
		rr.sim = simWork{}
		reopened, err := rr.verifySweep(vspan)
		if err != nil {
			vspan.End()
			return nil, err
		}
		vspan.Set(obs.A("reopened", reopened))
		vspan.End()
		if cfg.Logf != nil && reopened > 0 {
			cfg.Logf("refine: verification reopened %d prefixes", reopened)
		}
		if rr.observing {
			rr.emit(RefineEvent{Type: "verify", PrefixesReopened: reopened, VerifyRound: res.VerifyRounds,
				SimRuns: rr.sim.runs, SimMessages: rr.sim.messages})
		}
		if reopened > 0 {
			continue
		}
		// Nothing broken: give quarantined prefixes their one escalated
		// retry; if any re-opened, keep refining, else we are done.
		if rr.retryQuarantined() == 0 {
			break
		}
	}

	if err := rr.finish(); err != nil {
		return nil, err
	}

	mRefines.Inc()
	mIterPerRun.ObserveInt(res.Iterations)
	return res, nil
}

// finish does the final accounting: re-simulate everything not settled,
// fold still-quarantined prefixes (iteration budget ran out before their
// retry) into the diverged count, and build the quarantine report.
func (rr *refineRun) finish() error {
	m, res := rr.m, rr.res
	res.Converged = true
	for _, w := range rr.works {
		if w.quarantined {
			w.quarantined = false
			w.gaveUp = true
			res.DivergedPrefixes++
			mDivergedPx.Inc()
		}
		if w.done && w.ok {
			continue
		}
		if w.gaveUp {
			res.Converged = false
			res.UnsatisfiedRequirements += len(w.reqs)
			continue
		}
		if err := rr.runPrefix(w); err != nil {
			var derr *sim.DivergenceError
			if errors.As(err, &derr) {
				w.div = derr
				w.gaveUp = true
				res.DivergedPrefixes++
				mDivergedPx.Inc()
				res.Converged = false
				res.UnsatisfiedRequirements += len(w.reqs)
				continue
			}
			return err
		}
		if rr.observing {
			w.ribOut, w.potential, w.ribIn = m.matchCounts(w)
		}
		unsat := m.countUnsatisfied(w)
		if unsat > 0 {
			res.Converged = false
			res.UnsatisfiedRequirements += unsat
		}
	}
	for _, w := range rr.works {
		if w.div == nil {
			continue
		}
		rec := QuarantineRecord{
			Prefix:    rr.name(w),
			Messages:  w.div.Messages,
			Budget:    w.div.Budget,
			Recovered: !w.gaveUp,
		}
		if w.retried {
			rec.RetryBudget = w.budget
		}
		res.Quarantined = append(res.Quarantined, rec)
		if rec.Recovered {
			mQRecovered.Inc()
		}
	}
	if rr.observing {
		rr.emit(RefineEvent{Type: "done", Converged: res.Converged})
	}
	return nil
}

// matchCounts classifies every requirement of w against the network's
// converged state for w.id (call after RunPrefix). The counts are
// cumulative thresholds mirroring §4.2 at requirement granularity:
// ribOut <= potential (lost at worst the router-ID tie-break) <= ribIn
// (present in some RIB-In at all).
func (m *Model) matchCounts(w *prefixWork) (ribOut, potential, ribIn int) {
	for _, rq := range w.reqs {
		matched := false
		for _, q := range m.qrs[rq.as] {
			if qrSatisfies(q, rq.suffix) {
				matched = true
				break
			}
		}
		if matched {
			ribOut++
			potential++
			ribIn++
			continue
		}
		// Look for the wanted route among the candidates and keep the
		// elimination step closest to winning (as metrics.Classify does).
		bestStep := bgp.StepNone
		found := false
		for _, q := range m.qrs[rq.as] {
			cands, elim := q.DecideRIB()
			for i, cand := range cands {
				if cand.Path.Equal(rq.suffix) {
					found = true
					if elim[i] > bestStep {
						bestStep = elim[i]
					}
				}
			}
		}
		if !found {
			continue
		}
		ribIn++
		if bestStep == bgp.StepRouterID {
			potential++
		}
	}
	return ribOut, potential, ribIn
}

// buildWork derives the deduplicated (AS, suffix) requirements per prefix.
// Requirements are ordered by suffix length (origin side first), matching
// the paper's walk from the origin toward the observation points.
func (m *Model) buildWork(train *dataset.Dataset, res *RefineResult) ([]*prefixWork, int) {
	var works []*prefixWork
	maxLen := 1
	for _, name := range train.Prefixes() {
		id, ok := m.Universe.ID(name)
		if !ok || len(m.origins(id)) == 0 {
			res.SkippedPrefixes++
			continue
		}
		w := &prefixWork{id: id}
		seen := make(map[bgp.ASN]map[bgp.PathKey]struct{})
		for _, paths := range train.ObservedPaths(name) {
			for _, p := range paths {
				if len(p) > maxLen {
					maxLen = len(p)
				}
				for i := range p {
					a := p[i]
					if len(m.qrs[a]) == 0 {
						continue // AS unknown to the model topology
					}
					suffix := p[i+1:]
					k := suffix.Key()
					set := seen[a]
					if set == nil {
						set = make(map[bgp.PathKey]struct{})
						seen[a] = set
					}
					if _, dup := set[k]; dup {
						continue
					}
					set[k] = struct{}{}
					w.reqs = append(w.reqs, requirement{as: a, suffix: suffix, key: k})
				}
			}
		}
		sort.Slice(w.reqs, func(i, j int) bool {
			ri, rj := w.reqs[i], w.reqs[j]
			if len(ri.suffix) != len(rj.suffix) {
				return len(ri.suffix) < len(rj.suffix)
			}
			if ri.as != rj.as {
				return ri.as < rj.as
			}
			return ri.key < rj.key
		})
		works = append(works, w)
	}
	return works, maxLen
}

// qrSatisfies reports whether the quasi-router's current best route
// realizes the requirement suffix (locally originated for the empty
// suffix).
func qrSatisfies(q *sim.Router, suffix bgp.Path) bool {
	if len(suffix) == 0 {
		return q.Local() != nil && q.Best() == q.Local()
	}
	b := q.Best()
	return b != nil && b.Path.Equal(suffix)
}

func (m *Model) countUnsatisfied(w *prefixWork) int {
	unsat := 0
	for _, rq := range w.reqs {
		found := false
		for _, q := range m.qrs[rq.as] {
			if qrSatisfies(q, rq.suffix) {
				found = true
				break
			}
		}
		if !found {
			unsat++
		}
	}
	return unsat
}

// refinePrefix performs one heuristic iteration (Figure 6) for one prefix
// against the network's converged state. It returns whether the model was
// changed, whether every requirement was already RIB-Out matched, and how
// many quasi-router reservations pass 1 made (trace bookkeeping). Every
// edit is counted in res and on its live refine_* counter where it is
// made.
func (m *Model) refinePrefix(w *prefixWork, cfg RefineConfig, res *RefineResult) (changed, satisfied bool, reservations int) {
	prefix := w.id
	type reqKey struct {
		as  bgp.ASN
		key bgp.PathKey
	}
	resvByQR := make(map[bgp.RouterID]bgp.PathKey)
	resvReq := make(map[reqKey]bool)

	// Pass 1: reserve quasi-routers that already RIB-Out match a
	// requirement (lowest ID first; one quasi-router per distinct suffix).
	for _, rq := range w.reqs {
		for _, q := range m.qrs[rq.as] {
			if _, taken := resvByQR[q.ID]; taken {
				continue
			}
			if qrSatisfies(q, rq.suffix) {
				resvByQR[q.ID] = rq.key
				resvReq[reqKey{rq.as, rq.key}] = true
				reservations++
				break
			}
		}
	}

	satisfied = true
	for _, rq := range w.reqs {
		if resvReq[reqKey{rq.as, rq.key}] {
			continue
		}
		satisfied = false
		if len(rq.suffix) == 0 {
			continue // origination is structural; nothing to adjust
		}

		// RIB-In matches: quasi-routers that learned the wanted route,
		// with the session that delivered it.
		type inMatch struct {
			q    *sim.Router
			from *sim.Peer
		}
		var all []inMatch
		var free []inMatch
		for _, q := range m.qrs[rq.as] {
			routes, from := q.RIBIn()
			for i, rt := range routes {
				if rt.Path.Equal(rq.suffix) {
					im := inMatch{q, from[i]}
					all = append(all, im)
					if _, taken := resvByQR[q.ID]; !taken {
						free = append(free, im)
					}
					break
				}
			}
		}

		switch {
		case len(free) > 0:
			// RIB-In match at an unreserved quasi-router: adjust its
			// policies so the wanted route wins (§4.6).
			im := free[0]
			steerSelection(im.q, im.q, im.from, rq, prefix, cfg, res)
			resvByQR[im.q.ID] = rq.key
			resvReq[reqKey{rq.as, rq.key}] = true
			changed = true

		case len(all) > 0:
			// All RIB-In matches live on reserved quasi-routers:
			// duplicate one and adjust the copy.
			if cfg.DisableDuplication {
				continue
			}
			src := all[0]
			nq, err := m.DuplicateQR(src.q)
			if err != nil {
				continue
			}
			res.QuasiRoutersAdded++
			mQRsAdded.Inc()
			// The copy's RIB-In materializes next run; use the source's
			// RIB-In as the proxy for policy synthesis.
			steerSelection(nq, src.q, nq.PeerTo(src.from.Remote.ID), rq, prefix, cfg, res)
			resvByQR[nq.ID] = rq.key
			resvReq[reqKey{rq.as, rq.key}] = true
			changed = true

		default:
			// No RIB-In anywhere: either the upstream AS is not ready yet
			// (fixed in a later iteration) or one of our own filters
			// blocks the observed path (Figure 7 — delete it).
			if m.unblockPath(rq, prefix, cfg, res, resvByQR) {
				changed = true
			}
		}
	}
	return changed, satisfied, reservations
}

// clearImports drops q's import actions for prefix on every session.
func clearImports(q *sim.Router, prefix bgp.PrefixID) {
	for _, p := range q.Peers() {
		p.ClearImport(prefix)
	}
}

// steerSelection installs policies at quasi-router q so that the route
// delivered by `from` (carrying rq.suffix) becomes q's best: export
// filters at the announcing neighbors of strictly shorter contenders,
// plus a MED preference for the desired session (§4.6). With UseLocalPref
// the mechanism is a local-pref raise instead. The contenders are read
// from ribSrc's RIB-In: q's own, or, for a freshly duplicated q whose
// RIB-In is still empty, that of the source it was copied from (from is
// then nil if the copy has no session toward the announcing router).
func steerSelection(q, ribSrc *sim.Router, from *sim.Peer, rq requirement, prefix bgp.PrefixID, cfg RefineConfig, res *RefineResult) {
	clearImports(q, prefix)
	if cfg.UseLocalPref {
		if from != nil {
			from.SetImportLocalPref(prefix, 200)
			res.LocalPrefRules++
			mLPRules.Inc()
		}
		return
	}
	routes, fromPeers := ribSrc.RIBIn()
	for i, rt := range routes {
		if len(rt.Path) >= len(rq.suffix) {
			continue
		}
		// Filter at the announcing neighbor: deny its export toward q.
		ann := fromPeers[i].Remote.PeerTo(q.ID)
		if ann != nil && !ann.ExportDenied(prefix) {
			ann.DenyExport(prefix)
			res.FiltersAdded++
			mFiltersAdd.Inc()
		}
	}
	if !cfg.DisableMED && from != nil {
		from.SetImportMED(prefix, 0)
		res.MEDRules++
		mMEDRules.Inc()
	}
}

// unblockPath handles the no-RIB-In case of the heuristic: when the
// announcing neighbor AS already RIB-Out matches its suffix, a previously
// installed export filter must be blocking the observed path (Figure 7).
// The filter is removed if re-admitting the route cannot evict a reserved
// route (admitted path not shorter than the receiver's desired path);
// otherwise a quasi-router of the receiving AS is duplicated so an
// unfiltered session exists next iteration.
func (m *Model) unblockPath(rq requirement, prefix bgp.PrefixID, cfg RefineConfig, res *RefineResult, resvByQR map[bgp.RouterID]bgp.PathKey) bool {
	neighbor := rq.suffix[0]
	nSuffix := rq.suffix[1:]
	var nq *sim.Router
	for _, q := range m.qrs[neighbor] {
		if qrSatisfies(q, nSuffix) {
			nq = q
			break
		}
	}
	if nq == nil {
		return false // upstream not ready; a later iteration will fix it
	}
	var blocked []*sim.Peer
	for _, p := range nq.Peers() {
		if p.Remote.AS == rq.as && p.ExportDenied(prefix) {
			blocked = append(blocked, p)
		}
	}
	for _, p := range blocked {
		if key, taken := resvByQR[p.Remote.ID]; taken && len(rq.suffix) < key.Len() {
			continue // unsafe: the admitted route would evict the reserved one
		}
		p.AllowExport(prefix)
		res.FiltersRemoved++
		mFiltersDel.Inc()
		return true
	}
	if len(blocked) == 0 || cfg.DisableDuplication {
		return false
	}
	// Every filtered session points at a reserved quasi-router that the
	// admitted route would evict: grow the AS instead.
	nqr, err := m.DuplicateQR(blocked[0].Remote)
	if err != nil {
		return false
	}
	res.QuasiRoutersAdded++
	mQRsAdded.Inc()
	clearImports(nqr, prefix)
	return true
}
