package main

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/topology"
)

// buildWorkload is the paper's offline pipeline on a RIB dump: parse it,
// split it 50/50 by observation point, build the initial model, refine it
// on the training half, score the held-out half and write a checkpoint.
// One operation is one whole pass; every pass reads the same dump.
type buildWorkload struct {
	seed int64
	gen  generator
	dump string
	ckpt string
	last *buildPass
}

type buildPass struct {
	data, train, valid *dataset.Dataset
	m                  *model.Model
	prefixes, stuck    int
}

func newBuild(o options, dir string) workload {
	return &buildWorkload{
		seed: o.seed,
		gen:  generator{cfg: internet(true, o.smoke)},
		dump: filepath.Join(dir, "rib.mrt"),
		ckpt: filepath.Join(dir, "model.ckpt"),
	}
}

func (b *buildWorkload) params() map[string]any { return internetParams(b.gen.cfg) }

func (b *buildWorkload) prepare(context.Context) error { return nil }

// setup generates the ground truth and writes it as a TABLE_DUMP_V2 RIB
// dump. The seed shuffles the order of the routes within each RIB entry,
// which changes the bytes the parser reads but not the model it yields.
func (b *buildWorkload) setup(ctx context.Context) error {
	ds, err := b.gen.groundTruth(ctx)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(ds.Records), func(i, j int) { ds.Records[i], ds.Records[j] = ds.Records[j], ds.Records[i] })
	rib, err := encodeRIB(ds)
	if err != nil {
		return err
	}
	return os.WriteFile(b.dump, rib, 0o644)
}

func (b *buildWorkload) window(ctx context.Context, d time.Duration) (*sample, error) {
	s := &sample{}
	start := time.Now()
	for len(s.lat) == 0 || time.Since(start) < d {
		t0 := time.Now()
		p, err := b.pass(ctx)
		if err != nil {
			return nil, err
		}
		dt := time.Since(t0)
		s.lat = append(s.lat, dt)
		s.ops++
		s.work += float64(p.data.Len())
		s.workTime += dt
		s.attempted += int64(p.prefixes)
		s.failed += int64(p.stuck)
		b.last = p
	}
	return s, nil
}

// pass runs the pipeline once. Each stage gets its own span, so a traced
// window shows where the pass spent its time.
func (b *buildWorkload) pass(ctx context.Context) (*buildPass, error) {
	p := &buildPass{}
	err := stage(ctx, "mrt.ToDataset", func(context.Context) error {
		f, err := os.Open(b.dump)
		if err != nil {
			return err
		}
		defer f.Close()
		p.data, _, err = mrt.ToDataset(bufio.NewReader(f))
		if err != nil {
			return err
		}
		p.data.Normalize()
		p.train, p.valid = p.data.SplitByObsPoint(trainFrac, splitSeed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := stage(ctx, "model.NewInitial", func(context.Context) error {
		p.m, err = model.NewInitial(topology.FromDataset(p.data), dataset.NewUniverse(p.data))
		return err
	}); err != nil {
		return nil, err
	}
	var res *model.RefineResult
	if err := stage(ctx, "model.RefineContext", func(ctx context.Context) error {
		cfg := model.RefineConfig{Workers: workers, Observer: func(ev model.RefineEvent) {
			if ev.Type == "done" {
				p.stuck = ev.PrefixesStuck + ev.PrefixesDiverged
				p.prefixes = ev.PrefixesSettled + p.stuck
			}
		}}
		res, err = p.m.RefineContext(ctx, p.train, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage(ctx, "model.EvaluateParallel", func(ctx context.Context) error {
		_, err := p.m.EvaluateParallel(ctx, p.valid, workers)
		return err
	}); err != nil {
		return nil, err
	}
	err = stage(ctx, "model.WriteCheckpointFile", func(context.Context) error {
		return model.WriteCheckpointFile(b.ckpt, &model.Checkpoint{
			Iteration: res.Iterations, VerifyRounds: res.VerifyRounds, Result: *res, Model: p.m,
		})
	})
	return p, err
}

func (b *buildWorkload) finish(ctx context.Context, r *report) (*probeInputs, error) {
	p := b.last
	r.check("training_match", checkTraining(ctx, p.m, p.train))
	if err := validate(ctx, r, p.m, p.valid); err != nil {
		return nil, err
	}
	r.check("checkpoint_roundtrip", checkRoundTrip(b.ckpt, p.m))
	b.gen.report(r)
	rib, err := os.ReadFile(b.dump)
	if err != nil {
		return nil, err
	}
	return &probeInputs{model: p.m, data: p.data, train: p.train, rib: rib, checkpoint: b.ckpt}, nil
}

func (b *buildWorkload) close() {}
