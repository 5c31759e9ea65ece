package model

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/topology"
)

// refinedFixture builds the initial model over the full dataset and
// refines it on an observation-point split.
func refinedFixture(t testing.TB, seed int64, cfg RefineConfig) (*Model, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	full := genDataset(t, seed)
	train, valid := full.SplitByObsPoint(0.5, seed)
	g := topology.FromDataset(full)
	u := dataset.NewUniverse(full)
	m, err := NewInitial(g, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refine(train, cfg); err != nil {
		t.Fatal(err)
	}
	return m, train, valid
}

// TestEvaluateParallelDeterminism checks the tentpole guarantee: for any
// worker count, EvaluateParallel returns exactly what the sequential
// evaluation does — same summary, coverage, skip and divergence records —
// across several generator seeds and on both split halves.
func TestEvaluateParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	counts := []int{1, 2, 4, pool.DefaultWorkers()}
	for _, seed := range []int64{31, 32, 33} {
		m, train, valid := refinedFixture(t, seed, RefineConfig{})
		for _, ds := range []*dataset.Dataset{train, valid} {
			want, err := m.Evaluate(ds)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				got, err := m.EvaluateParallel(context.Background(), ds, w)
				if err != nil {
					t.Fatalf("seed %d workers %d: %v", seed, w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d workers %d: parallel evaluation differs from sequential:\n got %+v\nwant %+v",
						seed, w, got, want)
				}
			}
		}
	}
}

// TestEvaluateParallelDivergences drops the message budget so most
// prefixes diverge, then checks the parallel path reports the exact same
// divergence records (count, order, per-prefix context) as the
// sequential one.
func TestEvaluateParallelDivergences(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	m, _, valid := refinedFixture(t, 31, RefineConfig{})
	m.Net.MaxMessages = 40
	want, err := m.Evaluate(valid)
	if err != nil {
		t.Fatal(err)
	}
	if want.Diverged == 0 {
		t.Fatal("fixture produced no divergences; budget not low enough to exercise the path")
	}
	got, err := m.EvaluateParallel(context.Background(), valid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("divergent evaluation differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestEvaluateParallelRedactedTraceIdentical: the redacted span trace of
// an evaluation (every prefix sampled, some diverging) is byte-identical
// at any worker count, the sequential fallback included.
func TestEvaluateParallelRedactedTraceIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	m, _, valid := refinedFixture(t, 31, RefineConfig{})
	m.Net.MaxMessages = 400
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		var trace bytes.Buffer
		sink := obs.NewTraceSink(&trace)
		rec := obs.NewSpanRecorder(sink, "test evaluate", obs.SpanOptions{RedactTiming: true, PrefixSample: 1})
		ev, err := m.EvaluateParallel(obs.ContextWithSpan(context.Background(), rec.Root()), valid, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Diverged == 0 || ev.Diverged == len(valid.Prefixes()) {
			t.Fatalf("fixture diverged on %d prefixes; want some but not all", ev.Diverged)
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

// TestEvaluateParallelCanceled checks the cancellation contract matches
// EvaluateContext: a canceled context yields a *InterruptedError.
func TestEvaluateParallelCanceled(t *testing.T) {
	ds := genDataset(t, 31)
	g := topology.FromDataset(ds)
	m, err := NewInitial(g, dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.EvaluateParallel(ctx, ds, 4)
	var ierr *InterruptedError
	if !errors.As(err, &ierr) {
		t.Fatalf("EvaluateParallel on canceled context: got %v, want *InterruptedError", err)
	}
	if ierr.Op != "evaluate" {
		t.Errorf("interrupt op = %q, want evaluate", ierr.Op)
	}
}

// TestEvaluateParallelConcurrentReads runs an 8-worker evaluation while
// the source model is read concurrently; -race turns any sharing bug in
// Model.Clone into a failure.
func TestEvaluateParallelConcurrentReads(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	m, _, valid := refinedFixture(t, 31, RefineConfig{})
	done := make(chan error, 1)
	go func() {
		_, err := m.EvaluateParallel(context.Background(), valid, 8)
		done <- err
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			_ = m.Stats()
			_ = m.QuasiRouterHistogram()
			_ = m.NumQuasiRouters()
		}
	}
}

// TestModelCloneIsolation grows a clone's topology and policies and
// checks the source model is untouched and still evaluates identically.
func TestModelCloneIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	m, _, valid := refinedFixture(t, 32, RefineConfig{})
	wantStats := m.Stats()
	want, err := m.Evaluate(valid)
	if err != nil {
		t.Fatal(err)
	}

	clone := m.Clone()
	if got := clone.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("clone stats differ from source: got %+v want %+v", got, wantStats)
	}
	for _, r := range clone.Net.Routers() {
		for _, p := range r.Peers() {
			p.DenyExport(0)
			p.SetImportMED(1, 7)
		}
	}
	if _, err := clone.DuplicateQR(clone.Net.Routers()[0]); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("source stats changed by clone mutation: got %+v want %+v", got, wantStats)
	}
	got, err := m.Evaluate(valid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("source evaluation changed by clone mutation")
	}
}
