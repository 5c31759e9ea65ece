package model

import (
	"context"

	"asmodel/internal/dataset"
	"asmodel/internal/obs"
)

var mIncrRefines = obs.GetCounter("refine_incremental_runs_total",
	"incremental re-refinements of an already-refined model (one per stream batch)")

// RefineIncremental re-refines an already-refined model against a delta
// dataset — the current observations of only those prefixes whose
// routes changed, as produced by mrt.Replayer.DatasetFor after an
// update batch. It is the entry point the streaming refinement loop
// patches the model through: the delta's prefixes become a small open
// worklist and run through exactly the machinery a full refinement uses
// (sequential refine iterations, then a verify sweep over the delta
// prefixes that ran before the batch's last duplication), so identical
// batches give identical model bytes, counts and trace events.
//
// Policies installed by earlier refinements for unchanged prefixes are
// left alone; delta prefixes are re-targeted at their complete current
// observed state. Prefixes outside the model's universe (announced
// after the universe was fixed) are counted in SkippedPrefixes and
// skipped — the documented growth limitation of a fixed universe.
//
// The caller owns commit points: internal checkpointing is disabled
// regardless of cfg.Checkpoint, so a crash between batches can only
// ever observe the previous committed state.
func (m *Model) RefineIncremental(ctx context.Context, delta *dataset.Dataset, cfg RefineConfig) (*RefineResult, error) {
	cfg.Checkpoint = CheckpointConfig{}
	mIncrRefines.Inc()
	return newRefineRun(m, delta, cfg).run(ctx)
}
