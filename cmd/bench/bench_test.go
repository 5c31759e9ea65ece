package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/serve"
	"asmodel/internal/topology"
)

const specPath = "../../BENCHMARK.json"

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 1, window: 300 * time.Millisecond,
		trace: trace, smoke: true, workDir: t.TempDir(),
	}
}

// TestSmoke runs every workload on the tiny CI topology, untraced and
// traced, and holds the output to BENCHMARK.json: every declared metric
// is emitted, finite, in its declared unit, and nothing else is.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got := strings.Join(declared, ", "); got != workloadNames() {
		t.Fatalf("BENCHMARK.json declares workloads %s, the command runs %s", got, workloadNames())
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, err := run(context.Background(), smokeOptions(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s (trace %v): checks failed: %+v", w.name, trace, rep.Checks)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s (trace %v): %d operations, %d failed", w.name, trace, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s not emitted", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): %s in %q, declared %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (trace %v): %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// smokeModel refines a model of the tiny topology and writes its
// checkpoint.
func smokeModel(t *testing.T) (m *model.Model, ds, train *dataset.Dataset, ckpt string) {
	t.Helper()
	ctx := context.Background()
	ds, err := groundTruth(ctx, internet(false, true))
	if err != nil {
		t.Fatal(err)
	}
	train, _ = ds.SplitByObsPoint(trainFrac, splitSeed)
	if m, err = model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refine(train, model.RefineConfig{}); err != nil {
		t.Fatal(err)
	}
	ckpt = filepath.Join(t.TempDir(), "model.ckpt")
	if err := model.WriteCheckpointFile(ckpt, &model.Checkpoint{Model: m}); err != nil {
		t.Fatal(err)
	}
	return m, ds, train, ckpt
}

func TestCheckRoundTripCatchesCorruption(t *testing.T) {
	m, _, _, ckpt := smokeModel(t)
	if err := checkRoundTrip(ckpt, m); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkRoundTrip(ckpt, m); err == nil {
		t.Fatal("truncated checkpoint passed the round-trip check")
	}
}

func TestModelChecksCatchBadModels(t *testing.T) {
	_, ds, train, _ := smokeModel(t)
	initial, err := model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraining(context.Background(), initial, train); err == nil {
		t.Error("an unrefined model passed the training-match check")
	}

	// A held-out set the model knows nothing about scores 0.
	unknown := train.Clone()
	for i := range unknown.Records {
		unknown.Records[i].Prefix = "unknown-" + unknown.Records[i].Prefix
	}
	r := &report{Correct: true, layer: make(map[string]float64)}
	if err := validate(context.Background(), r, initial, unknown); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != 1 {
		t.Errorf("validation score %v passed the %.2f check", r.validFrac, minValidTieBreak)
	}
}

func TestStreamResumeCheckCatchesDivergence(t *testing.T) {
	ctx := context.Background()
	s := newStream(smokeOptions(t, "stream", false), t.TempDir()).(*streamWorkload)
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.window(ctx, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.checkResume(ctx); err != nil {
		t.Fatalf("clean resume: %v", err)
	}
	b, err := os.ReadFile(s.state)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(s.state, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.checkResume(ctx); err == nil {
		t.Fatal("a state file that differs from the resumed one passed the check")
	}
}

func TestCompareAnswersCatchesWrongPaths(t *testing.T) {
	m, ds, _, _ := smokeModel(t)
	snap := serve.NewSnapshot(m, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.Prediction{HasRoute: true, Path: "64512 64513", TieBreakStep: "best"})
	}))
	defer srv.Close()
	var vantages []bgp.ASN
	for asn := range m.QuasiRouterHistogram() {
		vantages = append(vantages, asn)
	}
	err := compareAnswers(context.Background(), srv.Client(), srv.URL, snap, ds.Prefixes(), vantages, 1)
	if err == nil {
		t.Fatal("wrong served paths passed the comparison")
	}
}

// TestCompare checks that compare passes two identical sets and flags
// an end-to-end metric that worsened by more than its bound.
func TestCompare(t *testing.T) {
	write := func(dir string, seed int64, latency float64) {
		rep := &report{
			Schema: resultSchema, Workload: "build", Seed: seed, Correct: true,
			Metrics: map[string]metric{"latency_p50_ms": {latency, "ms"}, "setup_s": {1, "s"}},
		}
		if err := writeReport(filepath.Join(dir, fmt.Sprintf("build-%d.json", seed)), rep); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 3; seed++ {
		write(a, seed, 100+float64(seed))
		write(b, seed, 100+float64(seed))
		write(c, seed, 150+float64(seed))
	}
	if code := compareMain([]string{"-spec", specPath, a, b}); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	if code := compareMain([]string{"-spec", specPath, a, c}); code != 1 {
		t.Errorf("50%% slower set: exit %d, want 1", code)
	}
}
