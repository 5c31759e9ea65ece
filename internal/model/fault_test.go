package model

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"asmodel/internal/dataset"
	"asmodel/internal/faultinject"
	"asmodel/internal/pool"
	"asmodel/internal/topology"
)

// mWorkerPanics is the pool's worker_panics_recovered counter.
var mWorkerPanics = pool.Panics

// installPanicHook points the pool's fault hook at a panic injector and
// arranges its removal when the test ends.
func installPanicHook(t *testing.T, inj *faultinject.PanicInjector) {
	t.Helper()
	pool.FaultHook = func(op string, item int) { inj.Fire(fmt.Sprintf("%s/%d", op, item)) }
	t.Cleanup(func() { pool.FaultHook = nil })
}

// TestEvaluateParallelRecoversPanic: a worker panic mid-sweep must
// surface as a typed *WorkerPanicError naming the prefix, never crash
// the process or deadlock the merge.
func TestEvaluateParallelRecoversPanic(t *testing.T) {
	m, ds := refineSample(t)
	installPanicHook(t, faultinject.NewPanicInjector(1))
	before := mWorkerPanics.Value()

	_, err := m.EvaluateParallel(context.Background(), ds, 2)
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("want *WorkerPanicError, got %T: %v", err, err)
	}
	if wp.Op != "evaluate" {
		t.Fatalf("Op = %q, want evaluate", wp.Op)
	}
	if wp.Prefix == "" {
		t.Fatal("panic error does not name the prefix")
	}
	if len(wp.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if _, ok := wp.Value.(faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered value = %#v, want the injected panic", wp.Value)
	}
	if got := mWorkerPanics.Value(); got != before+1 {
		t.Fatalf("worker_panics_recovered advanced by %d, want 1", got-before)
	}

	// The model is untouched (workers run on clones): a clean sweep
	// afterwards must succeed.
	if _, err := m.EvaluateParallel(context.Background(), ds, 2); err != nil {
		t.Fatalf("sweep after recovered panic: %v", err)
	}
}

// sampleCheckpoint builds a small but complete checkpoint for the write
// fault tests.
func sampleCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	m, _ := refineSample(t)
	return &Checkpoint{
		Iteration: 2,
		Works:     []CheckpointWork{{Prefix: "P3", State: "settled"}, {Prefix: "P4", State: "open"}},
		Model:     m,
	}
}

// TestCheckpointWriteRetriesTransients: transient write faults under the
// checkpoint sink are retried (counted on checkpoint_write_retries) and
// the file that lands is byte-identical to a fault-free write.
func TestCheckpointWriteRetriesTransients(t *testing.T) {
	cp := sampleCheckpoint(t)
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.ckpt")
	if err := WriteCheckpointFile(clean, cp); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	checkpointWriteWrap = func(w io.Writer) io.Writer {
		// The checkpoint writer is buffered, so only a handful of large
		// writes reach this layer: fail every attempt transiently, twice.
		return faultinject.NewWriter(w, faultinject.WriterConfig{TransientEvery: 1, MaxTransient: 2})
	}
	t.Cleanup(func() { checkpointWriteWrap = nil })
	before := mCkptRetries.Value()

	faulty := filepath.Join(dir, "faulty.ckpt")
	if err := WriteCheckpointFile(faulty, cp); err != nil {
		t.Fatalf("write through transient faults: %v", err)
	}
	got, err := os.ReadFile(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint written through faults differs: %d vs %d bytes", len(got), len(want))
	}
	if mCkptRetries.Value() == before {
		t.Fatal("checkpoint_write_retries did not advance")
	}
	if _, err := LoadCheckpointFile(faulty); err != nil {
		t.Fatalf("reload: %v", err)
	}
}

// TestCheckpointPermanentWriteKeepsOld: a permanent write fault must
// surface as the injected error and leave the previous good checkpoint
// (and the absence of a .bak) untouched.
func TestCheckpointPermanentWriteKeepsOld(t *testing.T) {
	cp := sampleCheckpoint(t)
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	checkpointWriteWrap = func(w io.Writer) io.Writer {
		return faultinject.NewWriter(w, faultinject.WriterConfig{FailAt: 40})
	}
	t.Cleanup(func() { checkpointWriteWrap = nil })

	err = WriteCheckpointFile(path, cp)
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("want injected write error, got %T: %v", err, err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || !bytes.Equal(got, want) {
		t.Fatalf("failed write damaged the previous checkpoint (%v)", rerr)
	}
	if _, err := os.Stat(path + ".bak"); !os.IsNotExist(err) {
		t.Fatalf("failed write rotated a .bak: %v", err)
	}
}

// TestCheckpointBakFallbackResume is the corrupt-checkpoint acceptance
// test: when the primary checkpoint is damaged, LoadCheckpointFile falls
// back to the .bak generation and resuming from it converges to a
// byte-identical final model.
func TestCheckpointBakFallbackResume(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		ds := randomObservations(rand.New(rand.NewSource(seed)))
		if ds.Len() == 0 {
			continue
		}
		m, err := NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ckpt := filepath.Join(t.TempDir(), "refine.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		_, err = m.RefineContext(ctx, ds, RefineConfig{
			Checkpoint: CheckpointConfig{Path: ckpt, Every: 1},
			Observer: func(ev RefineEvent) {
				if ev.Type == "iteration" {
					cancel()
				}
			},
		})
		cancel()
		if err == nil {
			continue // converged before the first checkpoint; try another seed
		}
		var ierr *InterruptedError
		if !errors.As(err, &ierr) {
			t.Fatalf("seed %d: want *InterruptedError, got %v", seed, err)
		}

		// Reference: resume from the intact primary.
		cpRef, err := LoadCheckpointFile(ckpt)
		if err != nil {
			t.Fatalf("seed %d: load primary: %v", seed, err)
		}
		if cpRef.Source != ckpt {
			t.Fatalf("seed %d: intact load reports source %q", seed, cpRef.Source)
		}
		refRes, err := ResumeRefine(context.Background(), cpRef, ds, RefineConfig{})
		if err != nil {
			t.Fatalf("seed %d: reference resume: %v", seed, err)
		}
		var refBytes bytes.Buffer
		if err := cpRef.Model.Save(&refBytes); err != nil {
			t.Fatal(err)
		}

		// Rotate a second generation (creating refine.ckpt.bak), then
		// corrupt the primary.
		cpGen, err := LoadCheckpointFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpointFile(ckpt, cpGen); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(ckpt + ".bak"); err != nil {
			t.Fatalf("seed %d: no .bak after second write: %v", seed, err)
		}
		if err := os.WriteFile(ckpt, []byte("not a checkpoint\n"), 0o644); err != nil {
			t.Fatal(err)
		}

		cpBak, err := LoadCheckpointFile(ckpt)
		if err != nil {
			t.Fatalf("seed %d: fallback load failed: %v", seed, err)
		}
		if cpBak.Source != ckpt+".bak" {
			t.Fatalf("seed %d: recovered from %q, want the .bak", seed, cpBak.Source)
		}
		if cpBak.Iteration != cpRef.Iteration {
			t.Fatalf("seed %d: .bak at iteration %d, primary was %d", seed, cpBak.Iteration, cpRef.Iteration)
		}
		bakRes, err := ResumeRefine(context.Background(), cpBak, ds, RefineConfig{})
		if err != nil {
			t.Fatalf("seed %d: resume from .bak: %v", seed, err)
		}
		var bakBytes bytes.Buffer
		if err := cpBak.Model.Save(&bakBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bakBytes.Bytes(), refBytes.Bytes()) {
			t.Fatalf("seed %d: model resumed from .bak differs from primary resume", seed)
		}
		if bakRes.Converged != refRes.Converged || bakRes.FiltersAdded != refRes.FiltersAdded ||
			bakRes.QuasiRoutersAdded != refRes.QuasiRoutersAdded {
			t.Fatalf("seed %d: resume results differ:\nbak: %+v\nref: %+v", seed, bakRes, refRes)
		}

		// With the .bak gone too, the load must fail loudly.
		if err := os.Remove(ckpt + ".bak"); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpointFile(ckpt); err == nil {
			t.Fatalf("seed %d: corrupt checkpoint loaded with no .bak present", seed)
		}
		return // one interrupted seed fully exercises the path
	}
	t.Skip("no seed produced an interruptible refinement")
}
