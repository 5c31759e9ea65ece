package gen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/faultinject"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
)

// genPair generates two structurally identical Internets from the same
// config (generation is deterministic in the seed), so one can run
// sequentially and the other in parallel.
func genPair(t *testing.T, cfg Config) (*Internet, *Internet) {
	t.Helper()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestRunAllParallelMatchesSequential sweeps seeds — including ones whose
// weird policies diverge and get reverted — and requires the parallel
// dataset, the Weird/QuirksReverted bookkeeping, and the post-run
// canonical network state to be identical to sequential.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		seed       int64
		weirdFrac  float64
		wantRevert bool
	}{
		{seed: 1, weirdFrac: 0.1},
		{seed: 3, weirdFrac: 0.1},
		{seed: 8, weirdFrac: 0.3, wantRevert: true}, // diverging quirk: exercises the revert-replay path
		{seed: 9, weirdFrac: 0.3, wantRevert: true},
	}
	for _, tc := range cases {
		cfg := smallConfig(tc.seed)
		cfg.WeirdPolicyFrac = tc.weirdFrac
		seqIn, parIn := genPair(t, cfg)

		seqDS, err := seqIn.RunAll()
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", tc.seed, err)
		}
		if tc.wantRevert && seqIn.QuirksReverted == 0 {
			t.Fatalf("seed %d: expected a quirk revert, got none (probe the seed again)", tc.seed)
		}
		parDS, err := parIn.RunAllParallel(context.Background(), 4)
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", tc.seed, err)
		}

		var seqBuf, parBuf bytes.Buffer
		if err := seqDS.Write(&seqBuf); err != nil {
			t.Fatal(err)
		}
		if err := parDS.Write(&parBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqBuf.Bytes(), parBuf.Bytes()) {
			t.Errorf("seed %d: parallel dataset differs from sequential (%d vs %d bytes)",
				tc.seed, parBuf.Len(), seqBuf.Len())
		}
		if seqIn.QuirksReverted != parIn.QuirksReverted {
			t.Errorf("seed %d: QuirksReverted %d != %d", tc.seed, parIn.QuirksReverted, seqIn.QuirksReverted)
		}
		if !reflect.DeepEqual(seqIn.Weird, parIn.Weird) {
			t.Errorf("seed %d: Weird maps differ after run", tc.seed)
		}
		if len(seqIn.quirkUndo) != len(parIn.quirkUndo) {
			t.Errorf("seed %d: quirkUndo sizes differ: %d != %d",
				tc.seed, len(parIn.quirkUndo), len(seqIn.quirkUndo))
		}

		// The canonical networks must be interchangeable afterwards: same
		// last-run state, and the same answers to later what-if re-runs.
		if !reflect.DeepEqual(seqIn.ObservedPathSet(), parIn.ObservedPathSet()) {
			t.Errorf("seed %d: post-RunAll ObservedPathSet differs", tc.seed)
		}
		probe := bgp.PrefixID(seqIn.NumPrefixes() / 2)
		if err := seqIn.RunOne(probe); err != nil {
			t.Fatal(err)
		}
		if err := parIn.RunOne(probe); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqIn.ObservedPathSet(), parIn.ObservedPathSet()) {
			t.Errorf("seed %d: RunOne(%d) ObservedPathSet differs", tc.seed, probe)
		}
	}
}

// TestRunAllParallelWorkerCounts checks the byte-identity holds for every
// pool size, including ones larger than the CPU count.
func TestRunAllParallelWorkerCounts(t *testing.T) {
	cfg := smallConfig(2)
	base, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := want.Write(&wantBuf); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		in, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := in.RunAllParallel(context.Background(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wantBuf.Bytes()) {
			t.Errorf("workers=%d: dataset differs from sequential", workers)
		}
	}
}

// TestCloneIsolation proves a clone's runs, policy hooks and quirk
// reverts never touch the parent.
func TestCloneIsolation(t *testing.T) {
	cfg := smallConfig(3)
	cfg.WeirdPolicyFrac = 0.2
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Weird) == 0 {
		t.Fatal("seed applied no weird policies; pick another")
	}
	var weirdPrefix bgp.PrefixID
	for p := range in.quirkUndo {
		weirdPrefix = p
		break
	}
	parentUndos := len(in.quirkUndo)
	parentWeird := len(in.Weird)

	clone := in.Clone()

	// Reverting a quirk on the clone must not leak into the parent's
	// bookkeeping or its session policies.
	if !clone.revertQuirks(weirdPrefix) {
		t.Fatal("clone revert found nothing to undo")
	}
	if len(in.quirkUndo) != parentUndos || len(in.Weird) != parentWeird || in.QuirksReverted != 0 {
		t.Fatal("clone revert mutated parent bookkeeping")
	}
	for _, rec := range in.quirkUndo[weirdPrefix] {
		sp := in.policies[rec.key]
		if sp == nil {
			t.Fatal("parent lost a session policy")
		}
		present := false
		switch rec.kind {
		case undoLPOverride:
			_, present = sp.lpOverride[weirdPrefix]
		case undoExpDeny:
			present = sp.expDeny[weirdPrefix]
		case undoLeak:
			present = sp.leak[weirdPrefix]
		}
		if !present {
			t.Fatal("clone revert cleared a parent per-prefix override (hooks not re-bound?)")
		}
	}

	// Running the clone leaves the parent's routers quiescent.
	if err := clone.RunOne(0); err != nil {
		t.Fatal(err)
	}
	for _, vp := range in.vps {
		if vp.Router.Best() != nil {
			t.Fatal("running the clone converged routes on the parent")
		}
	}

	// And the parent still produces the pristine sequential dataset.
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, err := want.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	gotDS, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := wantDS.Write(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := gotDS.Write(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Error("parent dataset changed after clone activity")
	}
}

// TestRunAllParallelCancellation: a pre-canceled context aborts without
// touching the canonical bookkeeping.
func TestRunAllParallelCancellation(t *testing.T) {
	in, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.RunAllParallel(ctx, 4); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
	if in.QuirksReverted != 0 {
		t.Error("aborted run mutated revert bookkeeping")
	}
}

// TestRunAllParallelRecoversPanic: a worker panic mid-generation surfaces
// as the pool's typed *pool.PanicError naming the prefix, is counted on
// worker_panics_recovered, and leaves the canonical Internet untouched.
func TestRunAllParallelRecoversPanic(t *testing.T) {
	cfg := smallConfig(8)
	cfg.WeirdPolicyFrac = 0.3 // seed 8 reverts a quirk: the merge must not replay it
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewPanicInjector(3)
	pool.FaultHook = func(op string, item int) { inj.Fire(fmt.Sprintf("%s/%d", op, item)) }
	t.Cleanup(func() { pool.FaultHook = nil })
	before := pool.Panics.Value()

	_, err = in.RunAllParallel(context.Background(), 2)
	var wp *pool.PanicError
	if !errors.As(err, &wp) {
		t.Fatalf("want *pool.PanicError, got %T: %v", err, err)
	}
	if wp.Op != "generate" {
		t.Fatalf("Op = %q, want generate", wp.Op)
	}
	if wp.Prefix == "" || len(wp.Stack) == 0 {
		t.Fatalf("incomplete panic context: %+v", wp)
	}
	if _, ok := wp.Value.(faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered value = %#v, want the injected panic", wp.Value)
	}
	if got := pool.Panics.Value(); got != before+1 {
		t.Fatalf("worker_panics_recovered advanced by %d, want 1", got-before)
	}
	if in.QuirksReverted != 0 {
		t.Fatal("failed run mutated revert bookkeeping")
	}

	// Workers ran on clones: with the hook gone the same Internet still
	// generates the sequential dataset.
	pool.FaultHook = nil
	got, err := in.RunAllParallel(context.Background(), 2)
	if err != nil {
		t.Fatalf("run after recovered panic: %v", err)
	}
	ref, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := got.Write(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("dataset after recovered panic differs from sequential")
	}
}

// TestRunAllParallelRedactedTraceIdentical: the redacted span trace of a
// generation (every prefix sampled) is byte-identical at any worker
// count, the sequential fallback included.
func TestRunAllParallelRedactedTraceIdentical(t *testing.T) {
	cfg := smallConfig(9)
	cfg.WeirdPolicyFrac = 0.3
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		in, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		sink := obs.NewTraceSink(&trace)
		rec := obs.NewSpanRecorder(sink, "test generate", obs.SpanOptions{RedactTiming: true, PrefixSample: 1})
		if _, err := in.RunAllParallel(obs.ContextWithSpan(context.Background(), rec.Root()), workers); err != nil {
			t.Fatal(err)
		}
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = trace.Bytes()
			continue
		}
		if !bytes.Equal(trace.Bytes(), want) {
			t.Errorf("workers %d: redacted trace differs from sequential:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, trace.Bytes())
		}
	}
}
