package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/ingest"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
	"asmodel/internal/topology"
)

var (
	mBatches     = obs.GetCounter("stream_batches_total", "update batches committed")
	mRecords     = obs.GetCounter("stream_records_total", "MRT records consumed into committed batches")
	mRecoveries  = obs.GetCounter("stream_recoveries_total", "runs resumed from a committed cursor after a crash or restart")
	mQuarantines = obs.GetCounter("stream_quarantined_batches_total", "poison batches quarantined: refinement failed, the model rolled back and the records advanced")
	mStalls      = obs.GetCounter("stream_stalls_total", "stall-watchdog firings (no batch progress within the stall timeout)")
	mBatchSecs   = obs.GetHistogram("stream_batch_seconds", "wall-clock seconds per committed batch (collect+refine+commit)",
		obs.ExpBuckets(0.001, 2, 16))
	mLagSecs = obs.GetHistogram("stream_batch_lag_seconds", "wall-clock lag behind the stream head at commit (now - last record timestamp)",
		obs.ExpBuckets(0.5, 2, 20))
	mChanged = obs.GetHistogram("stream_changed_prefixes", "prefixes whose observations changed per batch",
		obs.ExpBuckets(1, 2, 12))
	mCursorRecords = obs.GetGauge("stream_cursor_records", "committed cursor position (MRT records)")
	mCursorBatches = obs.GetGauge("stream_cursor_batches", "committed cursor position (batches)")
)

// DefaultBatchRecords is the batch size (in MRT records) when
// Config.BatchRecords is zero.
const DefaultBatchRecords = 256

// Config parameterizes a streaming refinement run.
type Config struct {
	// Source feeds MRT records; required. The source's Describe()
	// descriptor is recorded in the cursor and validated on resume.
	Source Source
	// StatePath is the stream state file (cursor + embedded checkpoint),
	// committed atomically after every batch; required. If it exists
	// when Run starts, the run resumes from it.
	StatePath string
	// BatchRecords cuts a batch every N MRT records (0 =
	// DefaultBatchRecords). Part of the committed cursor: a resume with
	// a different value is refused, because batch boundaries define the
	// deterministic replay.
	BatchRecords int
	// MinAge applies the paper's stable-route filter to batch snapshots
	// (seconds; 0 disables). Also cursor-validated.
	MinAge int64
	// Deprecated: Workers is ignored; batch refinement runs on one
	// sequential path.
	Workers int
	// MaxIterations bounds each batch's refinement (0 = automatic).
	MaxIterations int
	// MaxBatches stops the run once the committed cursor reaches this
	// many batches (0 = unlimited). Benchmarks and crash smokes use it
	// to cut runs at deterministic points.
	MaxBatches int64
	// Bootstrap, when set, builds the initial model (topology, universe,
	// no refinement) from this dataset on a fresh start and commits it
	// as batch 0. When nil, the first batch's own snapshot bootstraps
	// the model — the universe is then fixed to the prefixes observed in
	// that batch.
	Bootstrap *dataset.Dataset
	// Ingest selects strict or lenient handling of malformed records.
	Ingest ingest.Options
	// StallTimeout arms a watchdog: if no record arrives and no batch
	// commits for this long, stream_stalls_total increments and a
	// warning is logged (0 disables). The watchdog only observes — a
	// stalled source is an operational signal, not an error.
	StallTimeout time.Duration
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...interface{})
	// Observer receives stream Events (see Event for the determinism
	// contract). Called from the run's goroutine only.
	Observer func(Event)
	// OnCommit, when set, is called after each batch commit (state
	// written, event emitted) with the committed state. The CLI's
	// -kill-after-batch crash smoke hangs off it.
	OnCommit func(*State)
}

func (c Config) norm() Config {
	if c.BatchRecords <= 0 {
		c.BatchRecords = DefaultBatchRecords
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// Result reports a completed (or cleanly stopped) streaming run.
type Result struct {
	// Batches and Records are the committed cursor position at exit.
	Batches int64
	Records int64
	// LastTS is the stream timestamp at the cursor.
	LastTS int64
	// Totals is the cumulative committed accounting.
	Totals Totals
	// Recovered is true when the run resumed from an existing state
	// file instead of starting fresh.
	Recovered bool
	// SkipReport is the run's lenient-ingestion report.
	SkipReport *ingest.Report
}

// Streamer runs the streaming refinement loop. Create with New, run
// with Run; a Streamer is single-use.
type Streamer struct {
	cfg Config

	rp      *mrt.Replayer
	m       *model.Model
	cur     Cursor
	rep     *ingest.Report
	ticks   atomic.Int64 // progress ticks for the stall watchdog
	stalled bool

	// base and baseSkipped snapshot the replay/ingest stats at the last
	// commit (or at start/resume); commit-time totals are deltas against
	// them, so records folded forward across an uncommitted batch still
	// land in the cursor accounting of the batch they fold into.
	base        mrt.ReplayStats
	baseSkipped int
	// pending counts records consumed but not yet committed: batches
	// folded forward because no model could be built from them yet. They
	// are added to Cursor.Records by the commit that absorbs them.
	pending int
	// pendingUnstable mirrors Cursor.Unstable as a map: prefixes whose
	// routes the stable-route filter dropped from a snapshot, keyed to
	// the time they age into stability and must be re-snapshotted.
	pendingUnstable map[netip.Prefix]int64

	// crashHook, when non-nil, is called at scheduled points of the
	// batch loop ("mid-batch", "pre-commit", "post-commit",
	// "between-batches") with the upcoming batch sequence number — the
	// seam crash-matrix tests panic through to simulate a process death
	// at that exact point.
	crashHook func(point string, seq int64)
	// forcePoison, when non-nil, is the set of batch sequence numbers
	// whose refinement fails, as a membership test called once per
	// refinement (test seam for the poison-batch path).
	forcePoison func(seq int64) bool
}

// New builds a Streamer.
func New(cfg Config) *Streamer {
	return &Streamer{cfg: cfg.norm()}
}

func (s *Streamer) hook(point string, seq int64) {
	if s.crashHook != nil {
		s.crashHook(point, seq)
	}
}

// interrupted wraps a context cancellation as a *model.InterruptedError
// carrying the committed cursor, so the CLI's uniform exit-code mapping
// (3 = interrupted, cleanly committed) applies to streams too.
func (s *Streamer) interrupted(cause error) error {
	return &model.InterruptedError{
		Op:         "stream",
		Iterations: int(s.cur.Batches),
		Prefixes:   int(s.cur.Records),
		Checkpoint: s.cfg.StatePath,
		Err:        cause,
	}
}

func ctxErr(ctx context.Context, err error) error {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if err == nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// Run executes the streaming loop until the source is exhausted (non-
// follow sources), MaxBatches is reached, or ctx is canceled. On
// cancellation the in-flight batch is discarded — the state file always
// holds the last committed batch — and a *model.InterruptedError is
// returned. Restarting the same configuration resumes from the
// committed cursor and converges to the same states an uninterrupted
// run reaches (DESIGN.md §9).
func (s *Streamer) Run(ctx context.Context) (*Result, error) {
	if s.cfg.Source == nil {
		return nil, fmt.Errorf("stream: no source configured")
	}
	if s.cfg.StatePath == "" {
		return nil, fmt.Errorf("stream: no state path configured")
	}
	_, span := obs.StartSpan(ctx, "stream.run",
		obs.A("source", s.cfg.Source.Describe()),
		obs.A("batch_records", s.cfg.BatchRecords))
	defer span.End()

	s.rep = ingest.NewReport("mrt", s.cfg.Ingest)
	recovered, err := s.start(ctx, span)
	if err != nil {
		return nil, err
	}
	if s.cfg.StallTimeout > 0 {
		stop := s.watchdog(ctx)
		defer stop()
	}

	res := &Result{Recovered: recovered, SkipReport: s.rep}
	for {
		if s.cfg.MaxBatches > 0 && s.cur.Batches >= s.cfg.MaxBatches {
			break
		}
		done, err := s.runBatch(ctx, span)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	res.Batches = s.cur.Batches
	res.Records = s.cur.Records
	res.LastTS = s.cur.LastTS
	res.Totals = s.cur.Totals
	return res, nil
}

// start loads or initializes the run state: resume from the state file
// when it exists, otherwise start fresh (committing a batch-0 bootstrap
// state when a Bootstrap dataset is configured).
func (s *Streamer) start(ctx context.Context, span *obs.Span) (recovered bool, err error) {
	st, lerr := LoadStateFile(s.cfg.StatePath)
	switch {
	case lerr == nil:
		if err := s.resume(ctx, span, st); err != nil {
			return false, err
		}
		return true, nil
	case os.IsNotExist(lerr):
		s.rp = mrt.NewReplayer(0, s.cfg.MinAge)
		s.pendingUnstable = make(map[netip.Prefix]int64)
		s.cur = Cursor{
			Source:       s.cfg.Source.Describe(),
			BatchRecords: s.cfg.BatchRecords,
			MinAge:       s.cfg.MinAge,
		}
		if s.cfg.Bootstrap != nil {
			m, err := model.NewInitial(topology.FromDataset(s.cfg.Bootstrap), dataset.NewUniverse(s.cfg.Bootstrap))
			if err != nil {
				return false, fmt.Errorf("stream: bootstrap model: %w", err)
			}
			s.m = m
			// Commit batch 0 so a crash during the first real batch
			// recovers into the bootstrapped model instead of
			// re-deriving it.
			if err := s.commit(ctx); err != nil {
				return false, err
			}
			s.cfg.Logf("stream: bootstrapped model from dataset (%d prefixes), state %s",
				s.cfg.Bootstrap.Len(), s.cfg.StatePath)
		}
		return false, nil
	default:
		return false, fmt.Errorf("stream: loading state %s: %w", s.cfg.StatePath, lerr)
	}
}

// resume validates the committed cursor against the configuration and
// the source, rebuilds the replayer by re-reading exactly the committed
// record prefix, and installs the committed model.
func (s *Streamer) resume(ctx context.Context, span *obs.Span, st *State) error {
	cur := st.Cursor
	if cur.Source != s.cfg.Source.Describe() {
		return fmt.Errorf("stream: state %s was cut from source %q, not %q",
			st.Source, cur.Source, s.cfg.Source.Describe())
	}
	if cur.BatchRecords != s.cfg.BatchRecords {
		return fmt.Errorf("stream: state %s used -batch %d, not %d (batch boundaries define the replay; restart with the original value or a fresh state file)",
			st.Source, cur.BatchRecords, s.cfg.BatchRecords)
	}
	if cur.MinAge != s.cfg.MinAge {
		return fmt.Errorf("stream: state %s used -min-age %d, not %d",
			st.Source, cur.MinAge, s.cfg.MinAge)
	}
	rspan := span.StartChild("stream.recover",
		obs.A("records", cur.Records), obs.A("batches", cur.Batches))
	defer rspan.End()
	if err := s.cfg.Source.Reset(); err != nil {
		return fmt.Errorf("stream: resetting source for recovery: %w", err)
	}
	rp := mrt.NewReplayer(0, s.cfg.MinAge)
	for i := int64(0); i < cur.Records; i++ {
		rec, err := s.cfg.Source.Next(ctx)
		if cerr := ctxErr(ctx, err); cerr != nil {
			return s.interrupted(cerr)
		}
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("source ended after %d of %d committed records", i, cur.Records)
			}
			return fmt.Errorf("stream: recovery replay: %w", err)
		}
		s.rep.Record()
		if aerr := rp.Apply(rec); aerr != nil {
			if serr := s.skip(aerr); serr != nil {
				return fmt.Errorf("stream: recovery replay: %w", serr)
			}
		}
		s.ticks.Add(1)
	}
	if got := rp.Stats().LastTimestamp; got != cur.LastTS {
		return fmt.Errorf("stream: source changed under the cursor: committed last-ts %d, replay reached %d (after %d records)",
			cur.LastTS, got, cur.Records)
	}
	// The committed model already reflects every replayed change.
	rp.TakeChanged()
	s.rp = rp
	s.m = st.Checkpoint.Model
	s.cur = cur
	s.base = rp.Stats()
	s.baseSkipped = s.rep.Skipped
	s.pendingUnstable = make(map[netip.Prefix]int64, len(cur.Unstable))
	for _, u := range cur.Unstable {
		s.pendingUnstable[u.Prefix] = u.StableAt
	}
	mRecoveries.Inc()
	mCursorRecords.Set(cur.Records)
	mCursorBatches.Set(cur.Batches)
	s.cfg.Logf("stream: resumed from %s: batch %d, %d records, last-ts %d",
		st.Source, cur.Batches, cur.Records, cur.LastTS)
	if s.cfg.Observer != nil {
		s.cfg.Observer(Event{
			Type:           "recovery",
			ResumedBatches: cur.Batches,
			ResumedRecords: cur.Records,
			LastTS:         cur.LastTS,
			StateSource:    st.Source,
		})
	}
	return nil
}

// skip routes a malformed-record error through the lenient-ingestion
// budget (strict mode surfaces it immediately).
func (s *Streamer) skip(err error) error {
	return s.rep.Skip(s.rep.Records, err)
}

// runBatch collects one batch of records, delta-refines the changed
// prefixes, and commits cursor + checkpoint atomically. It returns
// done=true when a non-follow source is exhausted.
func (s *Streamer) runBatch(ctx context.Context, span *obs.Span) (done bool, err error) {
	seq := s.cur.Batches + 1
	start := time.Now()
	bspan := span.StartChild("stream.batch", obs.A("seq", seq))
	defer bspan.End()

	cspan := bspan.StartChild("collect")
	n := 0
	eof := false
	for n < s.cfg.BatchRecords {
		rec, rerr := s.cfg.Source.Next(ctx)
		if cerr := ctxErr(ctx, rerr); cerr != nil {
			cspan.End()
			return false, s.interrupted(cerr)
		}
		if rerr == io.EOF {
			eof = true
			break
		}
		if rerr != nil {
			// A framing failure loses sync with the length-prefixed
			// stream: in lenient mode count one skip and end the stream
			// at the last good record, mirroring batch ingestion.
			// Operational source failures (open, read, directory scan)
			// are not skippable — they abort the run.
			var fe *FramingError
			if !errors.As(rerr, &fe) {
				cspan.End()
				return false, fmt.Errorf("stream: reading source: %w", rerr)
			}
			if serr := s.skip(rerr); serr != nil {
				cspan.End()
				return false, fmt.Errorf("stream: reading source: %w", serr)
			}
			s.cfg.Logf("stream: source framing error after record %d: %v (ending stream)", s.rep.Records, rerr)
			eof = true
			break
		}
		s.rep.Record()
		if aerr := s.rp.Apply(rec); aerr != nil {
			if serr := s.skip(aerr); serr != nil {
				cspan.End()
				return false, fmt.Errorf("stream: applying record: %w", serr)
			}
		}
		n++
		s.ticks.Add(1)
		if n == 1 {
			s.hook("mid-batch", seq)
		}
	}
	cspan.Set(obs.A("records", n))
	cspan.End()
	if n == 0 {
		return eof, nil
	}

	// Re-mark prefixes whose excluded routes have aged into stability:
	// nothing else would ever re-snapshot a quiet prefix announced once
	// (DESIGN.md §9). The aged set re-enters this batch's changed set
	// and, being stable now, its routes appear in the delta.
	if len(s.pendingUnstable) > 0 {
		ref := s.rp.Stats().LastTimestamp
		var aged []netip.Prefix
		for p, at := range s.pendingUnstable {
			if at <= ref {
				aged = append(aged, p)
			}
		}
		if len(aged) > 0 {
			s.rp.MarkChanged(aged)
			for _, p := range aged {
				delete(s.pendingUnstable, p)
			}
		}
	}
	changed := s.rp.TakeChanged()
	delta := &dataset.Dataset{}
	if len(changed) > 0 {
		delta = s.rp.DatasetFor(changed)
	}
	for p, at := range s.rp.TakeUnstable() {
		s.pendingUnstable[p] = at
	}
	bootstrap := false
	if s.m == nil {
		// First batch of a fresh run without a bootstrap dataset: the
		// batch's own snapshot defines topology and universe.
		if delta.Len() == 0 {
			// Nothing announced yet (withdrawals, non-update records,
			// still-unstable routes): fold these records — and their
			// changed prefixes — into the next batch. Nothing was
			// committed, so a restart reproduces the fold
			// deterministically, and s.pending accounts the records to
			// the batch that finally commits.
			s.rp.MarkChanged(changed)
			s.pending += n
			return eof, nil
		}
		m, merr := model.NewInitial(topology.FromDataset(delta), dataset.NewUniverse(delta))
		if merr != nil {
			return false, fmt.Errorf("stream: bootstrap from batch %d: %w", seq, merr)
		}
		s.m = m
		bootstrap = true
	}

	// The batch absorbs any records folded forward by earlier
	// uncommitted calls: they are committed — counted in the cursor,
	// totals and event — exactly once, here.
	nBatch := s.pending + n
	ev := Event{
		Type:      "batch",
		Seq:       seq,
		Records:   nBatch,
		Bootstrap: bootstrap,
		Changed:   len(changed),
	}
	if len(changed) > 0 {
		res, rerr := s.refineBatch(ctx, bspan, seq, delta, bootstrap)
		if rerr != nil {
			return false, rerr
		}
		if res.quarantined {
			s.cur.Totals.QuarantinedBatch++
			ev.Quarantined = true
			ev.Err = res.errText
		} else {
			t := &s.cur.Totals
			t.UnknownPrefixes += res.res.SkippedPrefixes
			t.RefinedPrefixes += len(delta.Prefixes()) - res.res.SkippedPrefixes
			t.Iterations += res.res.Iterations
			t.QuasiRoutersAdded += res.res.QuasiRoutersAdded
			t.FiltersAdded += res.res.FiltersAdded
			t.FiltersRemoved += res.res.FiltersRemoved
			t.MEDRules += res.res.MEDRules
			t.LocalPrefRules += res.res.LocalPrefRules
			t.DivergedPrefixes += res.res.DivergedPrefixes
			ev.Unknown = res.res.SkippedPrefixes
			ev.Refined = len(delta.Prefixes()) - res.res.SkippedPrefixes
			ev.Iterations = res.res.Iterations
			ev.Converged = res.res.Converged
			ev.QuasiRoutersAdded = res.res.QuasiRoutersAdded
			ev.FiltersAdded = res.res.FiltersAdded
			ev.FiltersRemoved = res.res.FiltersRemoved
			ev.MEDRules = res.res.MEDRules
			ev.DivergedPrefixes = res.res.DivergedPrefixes
		}
	}

	// Advance and commit: cursor and checkpoint land in one atomic
	// write, so this batch is either fully committed or never happened.
	// Deltas run against the last-commit baseline (not this call's
	// start), so folded records' updates count too.
	after := s.rp.Stats()
	t := &s.cur.Totals
	t.Updates += after.Updates - s.base.Updates
	t.Announces += after.Announces - s.base.Announces
	t.Withdraws += after.Withdraws - s.base.Withdraws
	t.SkippedRecords += s.rep.Skipped - s.baseSkipped
	t.ChangedPrefixes += len(changed)
	s.cur.Records += int64(nBatch)
	s.cur.Batches = seq
	s.cur.LastTS = after.LastTimestamp
	s.cur.Unstable = unstableList(s.pendingUnstable)
	ev.Skipped = s.rep.Skipped - s.baseSkipped
	ev.Updates = after.Updates - s.base.Updates
	ev.Announces = after.Announces - s.base.Announces
	ev.Withdraws = after.Withdraws - s.base.Withdraws
	ev.CursorRecords = s.cur.Records
	ev.LastTS = s.cur.LastTS

	s.hook("pre-commit", seq)
	wspan := bspan.StartChild("commit")
	if err := s.commit(ctx); err != nil {
		wspan.End()
		if cerr := ctxErr(ctx, err); cerr != nil {
			return false, s.interrupted(cerr)
		}
		return false, err
	}
	wspan.End()
	s.base = after
	s.baseSkipped = s.rep.Skipped
	s.pending = 0
	s.hook("post-commit", seq)

	mBatches.Inc()
	mRecords.Add(int64(nBatch))
	mChanged.ObserveInt(len(changed))
	mBatchSecs.Observe(time.Since(start).Seconds())
	if s.cur.LastTS > 0 {
		if lag := time.Now().Unix() - s.cur.LastTS; lag >= 0 {
			mLagSecs.Observe(float64(lag))
		}
	}
	mCursorRecords.Set(s.cur.Records)
	mCursorBatches.Set(s.cur.Batches)
	if ev.Quarantined {
		mQuarantines.Inc()
	}
	s.ticks.Add(1)
	s.cfg.Logf("stream: batch %d committed: %d records, %d changed prefixes, %d iterations (cursor %d records, last-ts %d)",
		seq, nBatch, len(changed), ev.Iterations, s.cur.Records, s.cur.LastTS)
	if s.cfg.Observer != nil {
		s.cfg.Observer(ev)
	}
	if s.cfg.OnCommit != nil {
		st := &State{Cursor: s.cur, Checkpoint: s.snapshot()}
		s.cfg.OnCommit(st)
	}
	s.hook("between-batches", seq)
	return eof, nil
}

// batchOutcome is one batch's refinement outcome.
type batchOutcome struct {
	res         *model.RefineResult
	quarantined bool
	errText     string
}

// refineBatch runs the delta refinement with the poison-batch
// protocol: a failure rolls the model back to the committed state and
// quarantines the batch (records advance, refinement skipped) so one
// poison batch cannot wedge the stream. There is no retry: refinement
// is deterministic, so a re-run from the committed model would fail the
// same way, and every run schedule takes the same path.
func (s *Streamer) refineBatch(ctx context.Context, bspan *obs.Span, seq int64, delta *dataset.Dataset, bootstrap bool) (*batchOutcome, error) {
	rspan := bspan.StartChild("refine", obs.A("prefixes", len(delta.Prefixes())))
	res, err := s.refine(ctx, seq, delta)
	rspan.End()
	if err == nil {
		return &batchOutcome{res: res}, nil
	}
	if cerr := ctxErr(ctx, err); cerr != nil {
		return nil, s.interrupted(cerr)
	}
	var ierr *model.InterruptedError
	if errors.As(err, &ierr) {
		return nil, s.interrupted(err)
	}
	if rberr := s.rollback(delta, bootstrap); rberr != nil {
		return nil, fmt.Errorf("stream: batch %d refinement failed (%v) and rollback failed: %w", seq, err, rberr)
	}
	s.cfg.Logf("stream: batch %d refinement failed (%v); quarantined (records advance, refinement skipped)", seq, err)
	return &batchOutcome{quarantined: true, errText: err.Error()}, nil
}

// refine is the batch's refinement, with the forcePoison test seam in
// front of the real call.
func (s *Streamer) refine(ctx context.Context, seq int64, delta *dataset.Dataset) (*model.RefineResult, error) {
	if s.forcePoison != nil && s.forcePoison(seq) {
		return nil, fmt.Errorf("stream: injected poison failure for batch %d", seq)
	}
	return s.m.RefineIncremental(ctx, delta, model.RefineConfig{
		MaxIterations: s.cfg.MaxIterations,
		Logf:          s.cfg.Logf,
	})
}

// rollback restores the model to the last committed state: reloaded
// from the state file when one exists, re-derived from the bootstrap
// source otherwise. Either way the bytes match what recovery after a
// crash would start from.
func (s *Streamer) rollback(delta *dataset.Dataset, bootstrap bool) error {
	if bootstrap {
		// The model was built from this batch's snapshot and mutated by
		// the failed refinement; rebuild it the same way.
		m, err := model.NewInitial(topology.FromDataset(delta), dataset.NewUniverse(delta))
		if err != nil {
			return err
		}
		s.m = m
		return nil
	}
	st, err := LoadStateFile(s.cfg.StatePath)
	if err != nil {
		return err
	}
	s.m = st.Checkpoint.Model
	return nil
}

// unstableList renders the pending-unstable map in the cursor's
// canonical order (sorted by prefix), so committed state bytes are
// deterministic.
func unstableList(m map[netip.Prefix]int64) []UnstablePrefix {
	if len(m) == 0 {
		return nil
	}
	out := make([]UnstablePrefix, 0, len(m))
	for p, at := range m {
		out = append(out, UnstablePrefix{Prefix: p, StableAt: at})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// snapshot builds the embedded checkpoint for the current cursor:
// Iteration carries the batch sequence so checkpoint consumers
// (asmodeld) see stream progress, and the cumulative action counters
// ride in the result block.
func (s *Streamer) snapshot() *model.Checkpoint {
	t := s.cur.Totals
	return &model.Checkpoint{
		Iteration: int(s.cur.Batches),
		Result: model.RefineResult{
			QuasiRoutersAdded: t.QuasiRoutersAdded,
			FiltersAdded:      t.FiltersAdded,
			FiltersRemoved:    t.FiltersRemoved,
			MEDRules:          t.MEDRules,
			LocalPrefRules:    t.LocalPrefRules,
			DivergedPrefixes:  t.DivergedPrefixes,
		},
		Model: s.m,
	}
}

// commit writes the state file atomically (see WriteStateFile).
func (s *Streamer) commit(ctx context.Context) error {
	st := &State{Cursor: s.cur, Checkpoint: s.snapshot()}
	if err := WriteStateFile(ctx, s.cfg.StatePath, st); err != nil {
		return fmt.Errorf("stream: committing state %s: %w", s.cfg.StatePath, err)
	}
	return nil
}

// watchdog arms the stall monitor: a goroutine that fires when no
// progress tick (record read, batch commit) lands within StallTimeout.
// It observes and reports; it never kills the run — in follow mode a
// quiet source is legitimate, and the operator decides from the metric.
func (s *Streamer) watchdog(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	interval := s.cfg.StallTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		lastTick := s.ticks.Load()
		lastChange := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-done:
				return
			case <-t.C:
			}
			cur := s.ticks.Load()
			if cur != lastTick {
				lastTick = cur
				lastChange = time.Now()
				s.stalled = false
				continue
			}
			if !s.stalled && time.Since(lastChange) >= s.cfg.StallTimeout {
				s.stalled = true
				mStalls.Inc()
				s.cfg.Logf("stream: stalled: no progress for %v (source %s)",
					s.cfg.StallTimeout, s.cfg.Source.Describe())
			}
		}
	}()
	return func() { close(done) }
}
