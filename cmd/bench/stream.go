package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/stream"
)

// batchRecords is the stream's batch size: about three prefixes' worth
// of training records per batch at -scale 1. The tiny -smoke topology
// uses smokeBatchRecords, so that a pass still has several batches.
const (
	batchRecords      = 256
	smokeBatchRecords = 16
)

// streamWorkload is continuous refinement: the training half becomes an
// MRT update stream that stream.Run replays batch by batch, refining the
// changed prefixes at one worker and committing cursor and checkpoint
// after every batch. One operation is one batch; every timed pass starts
// from a fresh state file.
type streamWorkload struct {
	seed    int64
	batch   int
	gen     generator
	dir     string
	updates string // the update stream file
	state   string // the timed passes' state file

	boot, train, valid *dataset.Dataset
	last               *streamPass // the last timed pass
}

func newStream(o options, dir string) workload {
	batch := batchRecords
	if o.smoke {
		batch = smokeBatchRecords
	}
	return &streamWorkload{
		seed:    o.seed,
		batch:   batch,
		gen:     generator{cfg: internet(false, o.smoke)},
		dir:     dir,
		updates: filepath.Join(dir, "updates.mrt"),
		state:   filepath.Join(dir, "clean.state"),
	}
}

func (s *streamWorkload) params() map[string]any {
	p := internetParams(s.gen.cfg)
	p["batch_records"] = s.batch
	p["stream_workers"] = 1
	return p
}

func (s *streamWorkload) prepare(context.Context) error { return nil }

// setup generates the ground truth, splits it, and writes the training
// half as an update stream. The seed orders the prefixes in the stream;
// each prefix's records stay together and in their original order.
func (s *streamWorkload) setup(ctx context.Context) error {
	ds, err := s.gen.groundTruth(ctx)
	if err != nil {
		return err
	}
	train, valid := ds.SplitByObsPoint(trainFrac, splitSeed)
	s.train, s.valid = cidrNamed(train), cidrNamed(valid)
	rank := make(map[string]int)
	names := s.train.Prefixes()
	for i, j := range rand.New(rand.NewSource(s.seed)).Perm(len(names)) {
		rank[names[j]] = i
	}
	recs := s.train.Records
	sort.SliceStable(recs, func(i, j int) bool { return rank[recs[i].Prefix] < rank[recs[j].Prefix] })
	upd, err := encodeUpdates(s.train)
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.updates, upd, 0o644); err != nil {
		return err
	}
	// Bootstrap from the stream itself, so the model's universe uses the
	// replayer's prefix naming.
	s.boot, _, err = mrt.UpdatesToDataset(bytes.NewReader(upd), 0, 0)
	return err
}

// streamPass is one stream.Run to completion (or to maxBatches).
type streamPass struct {
	res    *stream.Result
	final  *model.Model
	failed int64 // retried or quarantined batches
}

// pass runs the stream into statePath. When lat is non-nil it receives
// the commit-to-commit time of every batch but the first, which also
// pays for bootstrapping the model.
func (s *streamWorkload) pass(ctx context.Context, statePath string, maxBatches int64, lat *[]time.Duration) (*streamPass, error) {
	src := stream.NewFileSource(s.updates, false, 0)
	defer src.Close()
	p := &streamPass{}
	var last time.Time
	cfg := stream.Config{
		Source:       src,
		StatePath:    statePath,
		BatchRecords: s.batch,
		Workers:      1,
		Bootstrap:    s.boot,
		MaxBatches:   maxBatches,
		Observer: func(ev stream.Event) {
			if ev.Type == "batch" && (ev.Retried || ev.Quarantined) {
				p.failed++
			}
		},
		OnCommit: func(st *stream.State) {
			now := time.Now()
			if lat != nil && !last.IsZero() {
				*lat = append(*lat, now.Sub(last))
			}
			last = now
			p.final = st.Checkpoint.Model
		},
	}
	err := stage(ctx, "stream.Run", func(ctx context.Context) (err error) {
		p.res, err = stream.New(cfg).Run(ctx)
		return err
	})
	return p, err
}

func (s *streamWorkload) window(ctx context.Context, d time.Duration) (*sample, error) {
	smp := &sample{}
	start := time.Now()
	for smp.workTime == 0 || time.Since(start) < d {
		if err := removeState(s.state); err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := s.pass(ctx, s.state, 0, &smp.lat)
		if err != nil {
			return nil, err
		}
		smp.workTime += time.Since(t0)
		smp.work += float64(p.res.Records)
		smp.ops += p.res.Batches
		smp.attempted += p.res.Batches
		smp.failed += p.failed
		s.last = p
	}
	return smp, nil
}

// removeState deletes a state file with its backup and temporary files.
func removeState(path string) error {
	for _, p := range []string{path, path + ".bak", path + ".tmp"} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

func (s *streamWorkload) finish(ctx context.Context, r *report) (*probeInputs, error) {
	final := s.last.final
	r.check("stream_resume_identical", s.checkResume(ctx))
	r.check("checkpoint_roundtrip", checkRoundTrip(s.state, final))
	if err := validate(ctx, r, final, s.valid); err != nil {
		return nil, err
	}
	fi, err := os.Stat(s.state)
	if err != nil {
		return nil, err
	}
	r.layer["stream.state_bytes"] = float64(fi.Size())
	r.layer["stream.batches"] = float64(s.last.res.Batches)
	r.layer["stream.refined_prefixes"] = float64(s.last.res.Totals.RefinedPrefixes)
	s.gen.report(r)
	upd, err := os.ReadFile(s.updates)
	if err != nil {
		return nil, err
	}
	data := s.train.Clone().Merge(s.valid)
	return &probeInputs{model: final, data: data, train: s.train, updates: upd, checkpoint: s.state}, nil
}

// checkResume stops a pass after half the batches, as a crash right after
// a commit would leave it, resumes it, and requires the final state file
// to equal the clean pass's byte for byte.
func (s *streamWorkload) checkResume(ctx context.Context) error {
	cut := filepath.Join(s.dir, "cut.state")
	if _, err := s.pass(ctx, cut, s.last.res.Batches/2, nil); err != nil {
		return err
	}
	p, err := s.pass(ctx, cut, 0, nil)
	if err != nil {
		return err
	}
	if !p.res.Recovered {
		return fmt.Errorf("the second run did not resume from the committed cursor")
	}
	return sameFile(s.state, cut)
}

func sameFile(a, b string) error {
	ab, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ab, bb) {
		return fmt.Errorf("%s (%d bytes) differs from %s (%d bytes)", b, len(bb), a, len(ab))
	}
	return nil
}

func (s *streamWorkload) close() {}
