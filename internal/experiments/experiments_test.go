package experiments

import (
	"strings"
	"testing"

	"asmodel/internal/gen"
	"asmodel/internal/pool"
)

func testSuite(t testing.TB) *Suite {
	t.Helper()
	cfg := gen.Config{
		Seed:             42,
		NumTier1:         4,
		NumTier2:         10,
		NumTier3:         20,
		NumStub:          35,
		RoutersTier1:     3,
		RoutersTier2:     2,
		RoutersTier3:     2,
		MultiHomeProb:    0.6,
		Tier2PeerProb:    0.2,
		Tier3PeerProb:    0.05,
		ParallelLinkProb: 0.4,
		WeirdPolicyFrac:  0.08,
		NumVantageASes:   14,
		MaxVantagePerAS:  2,
	}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFigure2(t *testing.T) {
	s := testSuite(t)
	h, out := s.Figure2()
	if h.Total() == 0 {
		t.Fatal("no AS pairs")
	}
	if h.FracAbove(1) == 0 {
		t.Error("no route diversity found — Figure 2 would be degenerate")
	}
	if !strings.Contains(out, "Figure 2") {
		t.Error("missing title")
	}
}

func TestTable1(t *testing.T) {
	s := testSuite(t)
	q, out := s.Table1()
	if q[0.99] < q[0.50] {
		t.Error("quantiles not monotone")
	}
	if q[0.99] < 2 {
		t.Errorf("p99 diversity %d < 2 — generator too tame", q[0.99])
	}
	if !strings.Contains(out, "percentile") {
		t.Error("missing table header")
	}
}

func TestTable2(t *testing.T) {
	s := testSuite(t)
	res, out, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	sp := res.ShortestPath.Summary
	pol := res.Policies.Summary
	if sp.Total == 0 || pol.Total == 0 {
		t.Fatal("empty table 2 summaries")
	}
	// The paper's qualitative result: single-router baselines agree on
	// far less than all paths, and policies do not beat plain shortest
	// path on agreement.
	if sp.Frac(sp.Agree()) > 0.95 {
		t.Errorf("shortest-path baseline suspiciously good: %v", sp)
	}
	if !strings.Contains(out, "Shortest Path") {
		t.Error("missing column")
	}
}

func TestRunPipelineAndDescribe(t *testing.T) {
	s := testSuite(t)
	o, err := s.RunPipeline(0.5, 7, RefineConfigDefault())
	if err != nil {
		t.Fatal(err)
	}
	if !o.Refine.Converged {
		t.Fatalf("pipeline did not converge: %+v", o.Refine)
	}
	if o.Train.Summary.RIBOut != o.Train.Summary.Total {
		t.Fatalf("training not exact: %v", o.Train.Summary)
	}
	if frac := o.Valid.Summary.Frac(o.Valid.Summary.DownToTieBreak()); frac < 0.6 {
		t.Errorf("validation down-to-tie-break %.2f below floor", frac)
	}
	out := o.Describe("E5+E6")
	for _, want := range []string{"RIB-Out match", "tie-break", "quasi-routers per AS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
}

// TestPaperClaimsScale1 checks the paper's headline claims on the
// default (scale 1) synthetic Internet, the scale EXPERIMENTS.md reports:
// refinement converges, the training half is matched exactly, and more
// than 80% of the held-out paths match down to the final tie-break.
func TestPaperClaimsScale1(t *testing.T) {
	if testing.Short() {
		t.Skip("refines the 418-prefix default Internet")
	}
	s, err := NewSuiteWorkers(gen.DefaultConfig(), pool.DefaultWorkers())
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.RunPipeline(0.5, 42, RefineConfigDefault())
	if err != nil {
		t.Fatal(err)
	}
	if !o.Refine.Converged {
		t.Fatalf("refinement did not converge: %+v", o.Refine)
	}
	if tr := o.Train.Summary; tr.RIBOut != tr.Total {
		t.Errorf("training RIB-Out match %d of %d paths, want all", tr.RIBOut, tr.Total)
	}
	frac := o.Valid.Summary.Frac(o.Valid.Summary.DownToTieBreak())
	if frac < 0.80 {
		t.Errorf("validation down-to-tie-break %.3f, want at least 0.80", frac)
	}
	t.Logf("%d iterations; validation down-to-tie-break %.3f of %d paths", o.Refine.Iterations, frac, o.ValidPaths)
}

func TestUnseenPrefixes(t *testing.T) {
	s := testSuite(t)
	o, err := s.UnseenPrefixes(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Valid.Summary.Total == 0 {
		t.Fatal("no validation paths")
	}
	if frac := o.Valid.Summary.Frac(o.Valid.Summary.RIBInMatches()); frac < 0.3 {
		t.Errorf("unseen-prefix RIB-In fraction %.2f too low", frac)
	}
}

func TestFigure3(t *testing.T) {
	s := testSuite(t)
	res, out := s.Figure3()
	if !strings.Contains(out, "distinct AS-paths") || !strings.Contains(out, "<-") {
		t.Errorf("figure 3 output:\n%s", out)
	}
	if res == nil || res.DistinctPaths < 1 || res.Prefix == "" || res.AS == 0 {
		t.Errorf("figure 3 result: %+v", res)
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	rows, out, err := s.Ablations(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	if !rows[0].Converged {
		t.Error("full configuration must converge")
	}
	if rows[0].TrainPct != 1.0 {
		t.Errorf("full training pct=%v", rows[0].TrainPct)
	}
	// No-duplication must be strictly worse on training when diversity
	// exists (it cannot represent multiple paths per AS).
	if rows[1].TrainPct > rows[0].TrainPct {
		t.Error("no-duplication beat full configuration")
	}
	if !strings.Contains(out, "ablation") {
		t.Error("missing table")
	}
}

func TestTopologyStats(t *testing.T) {
	s := testSuite(t)
	st, out, err := s.TopologyStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ASes == 0 || st.Edges == 0 {
		t.Fatal("empty stats")
	}
	if len(st.Tier1) < 4 {
		t.Errorf("tier1=%v", st.Tier1)
	}
	if st.PrunedASes > st.ASes {
		t.Error("pruning grew the graph")
	}
	if !strings.Contains(out, "single-homed stubs") {
		t.Error("missing row")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPrefixStudy(t *testing.T) {
	cfg := gen.Config{
		Seed: 8, NumTier1: 4, NumTier2: 8, NumTier3: 15, NumStub: 25,
		RoutersTier1: 3, RoutersTier2: 2, RoutersTier3: 2,
		MultiHomeProb: 0.6, Tier2PeerProb: 0.2, Tier3PeerProb: 0.05,
		ParallelLinkProb: 0.4, WeirdPolicyFrac: 0.15,
		NumVantageASes: 12, MaxVantagePerAS: 2,
	}
	res, out, err := MultiPrefixStudy(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "multi-prefix study") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "carry more than one prefix") {
		t.Error("missing histogram")
	}
	if res.Prefixes == 0 || res.PrefixesPerOrigin != 3 {
		t.Errorf("result: %+v", res)
	}
}

func TestCombinedSplit(t *testing.T) {
	s := testSuite(t)
	o, err := s.CombinedSplit(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Refine.Converged {
		t.Fatalf("training did not converge: %+v", o.Refine)
	}
	if o.Train.Summary.RIBOut != o.Train.Summary.Total {
		t.Fatalf("training not exact: %v", o.Train.Summary)
	}
	if o.Valid.Summary.Total == 0 {
		t.Fatal("empty fully-unseen quadrant")
	}
	// The hardest task: still expect meaningful RIB-In coverage.
	if frac := o.Valid.Summary.Frac(o.Valid.Summary.RIBInMatches()); frac < 0.25 {
		t.Errorf("combined-split RIB-In %.2f too low", frac)
	}
}

func TestComplexityByLevel(t *testing.T) {
	s := testSuite(t)
	o, err := s.RunPipeline(0.5, 7, RefineConfigDefault())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ComplexityByLevel(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"level-1", "level-2", "other", "extra quasi-routers"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWhatIfFidelity(t *testing.T) {
	s := testSuite(t)
	res, out, err := s.WhatIfFidelity(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases == 0 {
		t.Fatal("no cases compared")
	}
	if res.ExactSet > res.PrimaryCovered {
		t.Error("exact matches cannot exceed covered cases")
	}
	if frac := float64(res.ExactSet) / float64(res.Cases); frac < 0.4 {
		t.Errorf("what-if exact fidelity %.2f suspiciously low", frac)
	}
	if !strings.Contains(out, "what-if fidelity") {
		t.Error("missing title")
	}
}

func TestIterationsVsPathLength(t *testing.T) {
	s := testSuite(t)
	rows, out, err := s.IterationsVsPathLength([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "max path length") || !strings.Contains(out, "ratio") {
		t.Errorf("output:\n%s", out)
	}
	if len(rows) != 2 || rows[0].Seed != 1 || rows[0].Iterations == 0 || rows[0].MaxPathLen == 0 {
		t.Errorf("rows: %+v", rows)
	}
}
