package model

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/topology"
)

// refineInput is one refinement input of the worker-count matrix: the
// model is built from data, then refined on train.
type refineInput struct {
	name        string
	data, train *dataset.Dataset
}

// refineFull refines in.train on a fresh initial model of in.data with
// full observability attached — a redacted span recorder plus a
// trace-event observer writing to one sink — and returns the serialized
// model, the combined trace stream (events then spans) and the result.
// All three must match the sequential reference at any worker count.
func refineFull(t *testing.T, in refineInput, cfg RefineConfig) ([]byte, []byte, *RefineResult) {
	t.Helper()
	m, err := NewInitial(topology.FromDataset(in.data), dataset.NewUniverse(in.data))
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	sink := obs.NewTraceSink(&trace)
	rec := obs.NewSpanRecorder(sink, "test refine", obs.SpanOptions{RedactTiming: true})
	cfg.Observer = func(ev RefineEvent) {
		if err := sink.Emit(ev); err != nil {
			t.Fatalf("emit: %v", err)
		}
	}
	res, err := m.RefineContext(obs.ContextWithSpan(context.Background(), rec.Root()), in.train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var save bytes.Buffer
	if err := m.Save(&save); err != nil {
		t.Fatal(err)
	}
	return save.Bytes(), trace.Bytes(), res
}

// checkWorkersMatchSequential refines every input with Workers unset and
// at 1, 2, 4 and 8, and fails unless each run gives the byte-identical
// model, the byte-identical redacted trace stream (events and spans) and
// the same RefineResult: the deprecated Workers field has no effect.
func checkWorkersMatchSequential(t *testing.T, inputs []refineInput) {
	t.Helper()
	for _, in := range inputs {
		refSave, refTrace, refRes := refineFull(t, in, RefineConfig{})
		for _, workers := range []int{1, 2, 4, 8} {
			save, trace, res := refineFull(t, in, RefineConfig{Workers: workers})
			if !bytes.Equal(save, refSave) {
				t.Errorf("%s workers %d: model bytes differ from sequential", in.name, workers)
			}
			if !bytes.Equal(trace, refTrace) {
				t.Errorf("%s workers %d: redacted trace differs from sequential:\n--- sequential ---\n%s\n--- workers=%d ---\n%s",
					in.name, workers, refTrace, workers, trace)
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("%s workers %d: result differs:\nseq: %+v\npar: %+v", in.name, workers, refRes, res)
			}
		}
	}
}

// TestRefineWorkersDeterminism: refining the training half of a generated
// Internet at any worker count matches the sequential run byte for byte.
func TestRefineWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	full := genDataset(t, 33)
	train, _ := full.SplitByObsPoint(0.5, 33)
	checkWorkersMatchSequential(t, []refineInput{{"gen 33", full, train}})
}

// TestRefineWorkersSeedMatrixDeterminism: for a spread of random
// datasets, refining at any worker count matches the sequential run byte
// for byte.
func TestRefineWorkersSeedMatrixDeterminism(t *testing.T) {
	var inputs []refineInput
	for seed := int64(0); seed < 30 && len(inputs) < 5; seed++ {
		ds := randomObservations(rand.New(rand.NewSource(seed)))
		if ds.Len() >= 2 {
			inputs = append(inputs, refineInput{fmt.Sprintf("seed %d", seed), ds, ds})
		}
	}
	if len(inputs) < 5 {
		t.Fatalf("only %d usable datasets in 30 seeds", len(inputs))
	}
	checkWorkersMatchSequential(t, inputs)
}

// TestRefineWorkersQuarantineDeterminism drives the forceDiverge seam at
// several worker counts: the seam is consumed in worklist order, so
// quarantine/retry/diverged bookkeeping — and the final model — match
// the sequential run whether the prefix recovers (one forced divergence)
// or is abandoned (two).
func TestRefineWorkersQuarantineDeterminism(t *testing.T) {
	for _, forced := range []int{1, 2} {
		ds := &dataset.Dataset{Records: []dataset.Record{
			rec("op1a", "P4", 1, 2, 4),
			rec("op1b", "P4", 1, 3, 4),
			rec("op1", "P3", 1, 3),
			rec("op5", "P4", 5, 1, 2, 4),
		}}
		u := dataset.NewUniverse(ds)
		id, ok := u.ID("P4")
		if !ok {
			t.Fatal("P4 not in universe")
		}
		run := func(workers int) ([]byte, *RefineResult) {
			m, err := NewInitial(topology.FromDataset(ds), u)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Refine(ds, RefineConfig{
				Workers:      workers,
				forceDiverge: map[bgp.PrefixID]int{id: forced},
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), res
		}
		refSave, refRes := run(1)
		if len(refRes.Quarantined) == 0 {
			t.Fatalf("forced=%d: seam produced no quarantine records", forced)
		}
		for _, workers := range []int{2, 4} {
			save, res := run(workers)
			if !bytes.Equal(save, refSave) {
				t.Errorf("forced=%d workers %d: model bytes differ", forced, workers)
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("forced=%d workers %d: result differs:\nseq: %+v\npar: %+v", forced, workers, refRes, res)
			}
		}
	}
}

// refineCheckpoints refines with per-iteration checkpointing and returns
// the bytes of every checkpoint file as written, in order, plus the final
// model bytes.
func refineCheckpoints(t *testing.T, ds *dataset.Dataset, workers int) ([][]byte, []byte) {
	t.Helper()
	m, err := NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "refine.ckpt")
	var ckpts [][]byte
	_, err = m.Refine(ds, RefineConfig{
		Workers:    workers,
		Checkpoint: CheckpointConfig{Path: path, Every: 1},
		Observer: func(ev RefineEvent) {
			if ev.Type != "checkpoint" {
				return
			}
			b, rerr := os.ReadFile(ev.Checkpoint)
			if rerr != nil {
				t.Fatalf("read checkpoint: %v", rerr)
			}
			ckpts = append(ckpts, b)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var save bytes.Buffer
	if err := m.Save(&save); err != nil {
		t.Fatal(err)
	}
	return ckpts, save.Bytes()
}

// TestRefineWorkersCheckpointIdentity: every mid-run checkpoint file
// written at workers > 1 is byte-identical to the sequential one — and
// resuming such a checkpoint with workers > 1 converges to the
// sequential final model.
func TestRefineWorkersCheckpointIdentity(t *testing.T) {
	var ds *dataset.Dataset
	for seed := int64(0); seed < 30; seed++ {
		cand := randomObservations(rand.New(rand.NewSource(seed)))
		if cand.Len() < 2 {
			continue
		}
		ds = cand
		refCkpts, refSave := refineCheckpoints(t, ds, 1)
		if len(refCkpts) < 2 {
			ds = nil
			continue // too short to prove mid-run identity; try another seed
		}
		for _, workers := range []int{2, 4} {
			ckpts, save := refineCheckpoints(t, ds, workers)
			if len(ckpts) != len(refCkpts) {
				t.Fatalf("workers %d: %d checkpoints, sequential wrote %d", workers, len(ckpts), len(refCkpts))
			}
			for i := range ckpts {
				if !bytes.Equal(ckpts[i], refCkpts[i]) {
					t.Fatalf("workers %d: checkpoint %d differs from sequential", workers, i)
				}
			}
			if !bytes.Equal(save, refSave) {
				t.Fatalf("workers %d: final model differs from sequential", workers)
			}
		}

		// Resume from a mid-run sequential checkpoint with workers > 1:
		// same final model as the uninterrupted sequential run.
		path := filepath.Join(t.TempDir(), "mid.ckpt")
		if err := os.WriteFile(path, refCkpts[0], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeRefine(context.Background(), cp, ds, RefineConfig{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		var resumed bytes.Buffer
		if err := cp.Model.Save(&resumed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed.Bytes(), refSave) {
			t.Fatal("model resumed at workers=4 differs from uninterrupted sequential run")
		}
		return
	}
	t.Skip("no seed produced a multi-checkpoint refinement")
}
