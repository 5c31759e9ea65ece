package gen

import (
	"context"
	"fmt"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/routersim"
)

// Ground-truth generation metrics. Per-prefix simulation work is counted
// by the sim/routersim layers (on each worker's own clone); these cover
// the generation-level workload and the pool bookkeeping.
var (
	mGenRuns    = obs.GetCounter("gen_runs_total", "full ground-truth generation runs (RunAll / RunAllParallel)")
	mGenClones  = obs.GetCounter("gen_clones_total", "ground-truth Internet clones built for RunAll worker pools")
	mGenWorkers = obs.GetGauge("gen_parallel_workers", "worker count of the most recent ground-truth generation")
	mGenRunTime = obs.GetHistogram("gen_run_seconds", "wall time of a full ground-truth generation",
		obs.ExpBuckets(1e-2, 4, 12))
	mGenPerWkr = obs.GetHistogram("gen_worker_prefixes", "prefixes simulated per worker per parallel RunAll",
		obs.ExpBuckets(1, 4, 10))
	mGenBusy = obs.GetHistogram("gen_worker_busy_seconds", "per-worker time spent simulating prefixes per parallel RunAll",
		obs.ExpBuckets(1e-3, 4, 12))
	mGenIdle = obs.GetHistogram("gen_worker_idle_seconds", "per-worker time spent waiting (clone build, cursor contention, tail straggling) per parallel RunAll",
		obs.ExpBuckets(1e-3, 4, 12))
)

// obsGenRun stamps one generation run on the metrics above; call the
// returned func when the run finishes.
func obsGenRun() func() {
	mGenRuns.Inc()
	start := time.Now()
	return func() { mGenRunTime.ObserveDuration(time.Since(start)) }
}

// prefixShard is one prefix's contribution to a parallel generation,
// produced by a worker on its private clone and merged in prefix order by
// the coordinator.
type prefixShard struct {
	records  []dataset.Record
	reverted bool // the prefix's weird policy diverged and was rolled back
}

// genWorker is one generation worker's private state.
type genWorker struct {
	in  *Internet
	idx int
}

// RunAllParallel is RunAll fanned out over the worker pool: each worker
// gets its own deep copy of the Internet (Clone), pulls prefixes in
// prefix order, simulates them on its clone and records what the
// clone's vantage points see into a private shard. Shards are merged in
// prefix order, so the returned dataset is byte-identical to the
// sequential RunAll for any worker count.
//
// Divergence handling is preserved: a prefix whose weird-policy quirk
// makes BGP diverge is reverted on the worker's clone and re-run there,
// and the revert is replayed on the canonical Internet during the merge
// — in prefix order — so Weird, QuirksReverted and the session policies
// end up exactly as a sequential run leaves them. The canonical network
// finishes converged on the last prefix, again matching the sequential
// run, so later RunOne / DisableASLink what-ifs behave identically.
//
// workers <= 0 selects pool.DefaultWorkers(); workers == 1 (or a
// single-prefix Internet) falls back to the sequential path. A canceled
// context aborts the run with an error wrapping ctx.Err(); a worker
// panic returns a *pool.PanicError with Op "generate". On any failure
// the canonical Internet's bookkeeping is left untouched.
func (in *Internet) RunAllParallel(ctx context.Context, workers int) (*dataset.Dataset, error) {
	n := len(in.prefixOrigin)
	workers = pool.Workers(workers, n)
	if workers <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gen: ground-truth generation not started: %w", err)
		}
		return in.runAll(ctx)
	}
	defer obsGenRun()()
	mGenWorkers.Set(int64(workers))
	ctx, span := obs.StartSpan(ctx, "gen.run_all",
		obs.A("prefixes", n), obs.VolatileAttr("workers", workers))
	defer span.End()

	results := make([]prefixShard, n)
	sweep := pool.Sweep{
		Op:    "generate",
		Name:  func(i int) string { return in.prefixName[i] },
		Span:  span,
		Items: mGenPerWkr, Busy: mGenBusy, Idle: mGenIdle,
	}
	newWorker := func(wi int) genWorker { return genWorker{in: in.Clone(), idx: wi} }
	err := pool.Run(ctx, sweep, n, workers, newWorker, func(ctx context.Context, gw genWorker, i int) error {
		r := &results[i]
		// Sampled per-prefix spans attach to the stage span: the
		// prefix→worker assignment is nondeterministic, so only a
		// Volatile attr records it.
		var ps *obs.Span
		if span.SampledPrefix(i) {
			ps = span.StartChild("prefix",
				obs.A("prefix", in.prefixName[i]), obs.VolatileAttr("worker", gw.idx))
		}
		defer ps.End()
		reverted, err := gw.in.runPrefixRevertible(ctx, bgp.PrefixID(i))
		if err != nil {
			return err
		}
		var shard dataset.Dataset
		routersim.Observe(&shard, gw.in.PrefixName(bgp.PrefixID(i)), CollectionTime-7200, gw.in.vps)
		r.records = shard.Records
		r.reverted = reverted
		ps.Set(obs.A("reverted", reverted), obs.A("records", len(r.records)))
		return nil
	})
	if err != nil {
		if err == ctx.Err() {
			return nil, fmt.Errorf("gen: ground-truth generation interrupted: %w", err)
		}
		return nil, err
	}
	// Merge in prefix order: replay worker-side reverts on the canonical
	// Internet (identical bookkeeping to sequential), then concatenate the
	// shards (identical record order).
	total := 0
	for i := range results {
		total += len(results[i].records)
	}
	ds := &dataset.Dataset{Records: make([]dataset.Record, 0, total)}
	for i := range results {
		if results[i].reverted {
			in.revertQuirks(bgp.PrefixID(i))
		}
		ds.Records = append(ds.Records, results[i].records...)
	}

	// Leave the canonical network converged on the last prefix, exactly
	// where a sequential RunAll stops (all reverts are applied by now, so
	// this re-run cannot diverge unless the sequential run would have).
	last := bgp.PrefixID(n - 1)
	if err := in.RS.RunPrefix(last, in.prefixOrigin[last]); err != nil {
		return nil, fmt.Errorf("gen: prefix %s: %w", in.PrefixName(last), err)
	}
	span.Set(obs.A("records", len(ds.Records)))
	return ds, nil
}
