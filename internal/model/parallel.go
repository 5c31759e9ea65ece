package model

import (
	"context"
	"errors"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/metrics"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/sim"
)

// Parallel-evaluation metrics, registered on the obs default registry.
// Per-run sim counters are batched inside each worker's own network
// clone (sim.RunStats), so the only coordination here is the pool-level
// bookkeeping below.
var (
	mParEvals   = obs.GetCounter("eval_parallel_runs_total", "EvaluateParallel invocations")
	mParClones  = obs.GetCounter("eval_parallel_clones_total", "model clones built for worker pools")
	mParWorkers = obs.GetGauge("eval_parallel_workers", "worker count of the most recent parallel sweep")
	mParPerWkr  = obs.GetHistogram("eval_worker_prefixes", "prefixes processed per worker per parallel sweep",
		obs.ExpBuckets(1, 4, 10))
	mEvalBusy = obs.GetHistogram("eval_worker_busy_seconds", "per-worker time spent simulating prefixes per parallel sweep",
		obs.ExpBuckets(1e-3, 4, 12))
	mEvalIdle = obs.GetHistogram("eval_worker_idle_seconds", "per-worker time spent waiting (clone build, cursor contention, tail straggling) per parallel sweep",
		obs.ExpBuckets(1e-3, 4, 12))
)

// Clone returns a deep copy of the model sharing the immutable prefix
// Universe and AS Graph: the underlying network (topology + policies) is
// cloned via sim.Network.Clone, and the quasi-router index is rebuilt
// against the cloned routers. Clone only reads the source model, so
// several goroutines may clone the same quiescent model concurrently;
// the source must not be mid-Run or mid-Refine while clones are taken.
func (m *Model) Clone() *Model {
	c := &Model{
		Net:      m.Net.Clone(),
		Universe: m.Universe,
		Graph:    m.Graph,
		qrs:      make(map[bgp.ASN][]*sim.Router, len(m.qrs)),
		nextIdx:  make(map[bgp.ASN]uint16, len(m.nextIdx)),
	}
	for asn, rs := range m.qrs {
		crs := make([]*sim.Router, len(rs))
		for i, r := range rs {
			crs[i] = c.Net.Router(r.ID)
		}
		c.qrs[asn] = crs
	}
	for asn, idx := range m.nextIdx {
		c.nextIdx[asn] = idx
	}
	return c
}

// prefixEval is one prefix's contribution to a parallel evaluation,
// produced by a worker and merged in universe order by the coordinator.
type prefixEval struct {
	sum            *metrics.Summary // nil until evaluated
	matched, total int
	div            *DivergenceRecord
}

// evalWorker is one evaluation worker's private state.
type evalWorker struct {
	m   *Model
	cls *metrics.Classifier
	idx int
}

// EvaluateParallel is Evaluate fanned out over the worker pool: each
// worker gets its own model clone (Clone), pulls prefixes from the
// shared universe-ordered worklist, and emits a per-prefix summary;
// the coordinator merges summaries, coverage and divergence records in
// universe order, so the result is identical to the sequential
// EvaluateContext for any worker count. workers <= 0 selects
// pool.DefaultWorkers(); workers == 1 (or a worklist smaller than two
// prefixes) falls back to the sequential path over the model's own
// network.
//
// Cancellation matches EvaluateContext: a canceled context aborts with
// a *InterruptedError carrying the number of prefixes fully evaluated.
// The source model's network is never run by the pool, so m is safe to
// read (but not mutate) concurrently with an in-flight
// EvaluateParallel.
func (m *Model) EvaluateParallel(ctx context.Context, ds *dataset.Dataset, workers int) (*Evaluation, error) {
	works, skipped := m.evalWorklist(ds)
	workers = pool.Workers(workers, len(works))
	if workers <= 1 {
		return m.EvaluateContext(ctx, ds)
	}
	mParEvals.Inc()
	mParWorkers.Set(int64(workers))
	ctx, span := obs.StartSpan(ctx, "model.evaluate",
		obs.A("prefixes", len(works)), obs.A("skipped", skipped), obs.VolatileAttr("workers", workers))
	defer span.End()

	results := make([]prefixEval, len(works))
	sweep := pool.Sweep{
		Op:    "evaluate",
		Name:  func(i int) string { return m.Universe.Name(works[i].id) },
		Span:  span,
		Items: mParPerWkr, Busy: mEvalBusy, Idle: mEvalIdle,
	}
	newWorker := func(wi int) evalWorker {
		clone := m.Clone()
		mParClones.Inc()
		return evalWorker{m: clone, cls: metrics.NewClassifier(clone.Net), idx: wi}
	}
	err := pool.Run(ctx, sweep, len(works), workers, newWorker, func(ctx context.Context, ew evalWorker, i int) error {
		w, r := works[i], &results[i]
		// Sampled per-prefix spans attach to the stage span, not the
		// worker span: the prefix→worker assignment is nondeterministic,
		// so only a Volatile attr records it.
		var ps *obs.Span
		if span.SampledPrefix(int(w.id)) {
			ps = span.StartChild("prefix",
				obs.A("prefix", m.Universe.Name(w.id)), obs.VolatileAttr("worker", ew.idx))
		}
		defer ps.End()
		if err := ew.m.runPrefixBudget(ctx, w.id, 0); err != nil {
			var derr *sim.DivergenceError
			if !errors.As(err, &derr) {
				return err
			}
			r.div = &DivergenceRecord{
				Prefix:   m.Universe.Name(w.id),
				Messages: derr.Messages,
				Budget:   derr.Budget,
			}
			ps.Set(obs.A("diverged", true))
			return nil
		}
		r.sum = metrics.NewSummary()
		r.matched, r.total = metrics.EvaluatePrefixSorted(ew.cls, w.observed, r.sum)
		ps.Set(obs.A("matched", r.matched), obs.A("total", r.total))
		return nil
	})
	if err != nil {
		if err != ctx.Err() {
			return nil, err
		}
		done := 0
		for i := range results {
			if results[i].sum != nil {
				done++
			}
		}
		return nil, &InterruptedError{Op: "evaluate", Prefixes: done, Err: err}
	}

	// Merge in universe order.
	ev := &Evaluation{Summary: metrics.NewSummary(), SkippedPrefixes: skipped}
	for i := range results {
		r := &results[i]
		if r.div != nil {
			ev.Diverged++
			ev.Divergences = append(ev.Divergences, *r.div)
			continue
		}
		ev.Summary.Merge(r.sum)
		ev.Coverage.RecordPrefix(r.matched, r.total)
	}
	span.Set(obs.A("diverged", ev.Diverged))
	return ev, nil
}
