package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
)

// Every workload runs on one fixed synthetic Internet, so that the work a
// run does does not depend on its seed; the seed draws the order of the
// inputs (build, stream) or the query stream (serve) instead.
const (
	genSeed   = 1
	splitSeed = 1
	trainFrac = 0.5
	// workers is the pool size of every parallel stage: generation,
	// refinement, evaluation. No run uses more.
	workers = 2
	// minValidTieBreak is the paper's headline claim: more than 80% of
	// held-out paths match down to the final tie-break.
	minValidTieBreak = 0.80
)

// internet is the generator configuration of a workload's synthetic
// Internet: the experiments' default (-scale 1, 418 ASes), half of it
// (213 ASes), or the tiny CI topology under -smoke.
func internet(half, smoke bool) gen.Config {
	cfg := gen.DefaultConfig()
	cfg.Seed = genSeed
	switch {
	case smoke:
		cfg.NumTier1, cfg.NumTier2, cfg.NumTier3, cfg.NumStub, cfg.NumVantageASes = 3, 4, 6, 12, 5
	case half:
		cfg.NumTier2, cfg.NumTier3, cfg.NumStub, cfg.NumVantageASes = 20, 60, 125, 20
	}
	return cfg
}

func internetParams(cfg gen.Config) map[string]any {
	return map[string]any{
		"gen_seed": cfg.Seed, "tier1": cfg.NumTier1, "tier2": cfg.NumTier2, "tier3": cfg.NumTier3,
		"stubs": cfg.NumStub, "vantage_ases": cfg.NumVantageASes,
		"split_seed": splitSeed, "train_frac": trainFrac, "workers": workers,
	}
}

// groundTruth generates the synthetic Internet and collects its
// normalized ground-truth dataset.
func groundTruth(ctx context.Context, cfg gen.Config) (*dataset.Dataset, error) {
	in, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ds, err := in.RunAllParallel(ctx, workers)
	if err != nil {
		return nil, err
	}
	return ds.Normalize(), nil
}

// generator produces a workload's ground truth and remembers what that
// cost, for the gen.* layer metrics.
type generator struct {
	cfg     gen.Config
	times   []time.Duration
	records int
}

func (g *generator) groundTruth(ctx context.Context) (*dataset.Dataset, error) {
	t0 := time.Now()
	ds, err := groundTruth(ctx, g.cfg)
	if err != nil {
		return nil, err
	}
	g.times = append(g.times, time.Since(t0))
	g.records = ds.Len()
	return ds, nil
}

func (g *generator) report(r *report) {
	r.layer["gen.run_all_s"] = medianDuration(g.times).Seconds()
	r.layer["gen.records"] = float64(g.records)
}

// cidrNamed returns a copy of ds whose prefix names are the CIDRs MRT
// encoding maps them to, the naming a replayed update stream produces.
func cidrNamed(ds *dataset.Dataset) *dataset.Dataset {
	out := ds.Clone()
	for i := range out.Records {
		out.Records[i].Prefix = mrt.SyntheticCIDR(out.Records[i].Prefix).String()
	}
	return out
}

func encodeRIB(ds *dataset.Dataset) ([]byte, error) {
	var b bytes.Buffer
	err := mrt.FromDataset(&b, ds, 1)
	return b.Bytes(), err
}

func encodeUpdates(ds *dataset.Dataset) ([]byte, error) {
	var b bytes.Buffer
	_, err := mrt.WriteUpdates(&b, ds, 1000, 1)
	return b.Bytes(), err
}

// checkRoundTrip loads the checkpoint (or stream state) file at path and
// requires its model to serialize to exactly the bytes m does. It reads
// the file itself, not the ".bak" fallback LoadCheckpointFile would use.
func checkRoundTrip(path string, m *model.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cp, err := model.LoadCheckpoint(f)
	if err != nil {
		return err
	}
	var want, got bytes.Buffer
	if err := m.Save(&want); err != nil {
		return err
	}
	if err := cp.Model.Save(&got); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("%s: reloaded model saves %d bytes that differ from the %d the original saves", path, got.Len(), want.Len())
	}
	return nil
}

// checkTraining requires the model to RIB-Out match every training path.
func checkTraining(ctx context.Context, m *model.Model, train *dataset.Dataset) error {
	ev, err := m.EvaluateParallel(ctx, train, workers)
	if err != nil {
		return err
	}
	s := ev.Summary
	if s.Total == 0 || s.RIBOut != s.Total {
		return fmt.Errorf("training RIB-Out match %d/%d, want all", s.RIBOut, s.Total)
	}
	return nil
}

// validate scores the model on the held-out half (timed: evaluate.s) and
// checks the paper's headline claim.
func validate(ctx context.Context, r *report, m *model.Model, valid *dataset.Dataset) error {
	t0 := time.Now()
	ev, err := m.EvaluateParallel(ctx, valid, workers)
	if err != nil {
		return err
	}
	r.layer["evaluate.s"] = time.Since(t0).Seconds()
	s := ev.Summary
	r.validFrac = s.Frac(s.DownToTieBreak())
	var low error
	if r.validFrac < minValidTieBreak {
		low = fmt.Errorf("validation tie-break match %.4f < %.2f", r.validFrac, minValidTieBreak)
	}
	r.check("valid_tiebreak", low)
	return nil
}

// stage runs f inside a span named after the layer it calls into (a no-op
// unless the context carries a span recorder).
func stage(ctx context.Context, name string, f func(context.Context) error) error {
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	return f(ctx)
}
