// Package experiments regenerates every table and figure of the paper's
// evaluation on a synthetic ground-truth Internet. Each experiment
// returns both structured results and a formatted text block; cmd/
// experiments prints them and bench_test.go wraps them as benchmarks.
//
// The experiment IDs (E1..E11) and their mapping to the paper's tables
// and figures are indexed in DESIGN.md §4; measured-vs-paper numbers are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/metrics"
	"asmodel/internal/model"
	"asmodel/internal/pool"
	"asmodel/internal/relation"
	"asmodel/internal/stats"
	"asmodel/internal/topology"
)

// Suite holds a generated Internet and its ground-truth dataset, shared
// by all experiments.
type Suite struct {
	Cfg      gen.Config
	Internet *gen.Internet
	Data     *dataset.Dataset
	// Workers sizes the worker pool used for model evaluations (0 or 1 =
	// sequential; results are identical for any count — see
	// model.EvaluateParallel). Refinement is always sequential.
	Workers int
}

// evaluate scores a model against a dataset through the suite's worker
// pool. context.Background is fine here: experiments run to completion.
func (s *Suite) evaluate(m *model.Model, ds *dataset.Dataset) (*model.Evaluation, error) {
	w := s.Workers
	if w <= 0 {
		w = 1
	}
	return m.EvaluateParallel(context.Background(), ds, w)
}

// NewSuite generates the synthetic Internet and collects the ground-truth
// dataset (normalized per §3.1) sequentially. NewSuiteWorkers parallelizes
// the collection.
func NewSuite(cfg gen.Config) (*Suite, error) {
	return NewSuiteWorkers(cfg, 1)
}

// NewSuiteWorkers is NewSuite with the ground-truth simulation fanned out
// over a worker pool (gen.Internet.RunAllParallel): the dominant cost of
// suite setup at -scale > 1. The dataset is identical for any worker
// count; workers also becomes the suite's pool size for model evaluations
// (workers <= 0 selects one per CPU).
func NewSuiteWorkers(cfg gen.Config, workers int) (*Suite, error) {
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ds, err := in.RunAllParallel(context.Background(), workers)
	if err != nil {
		return nil, err
	}
	ds.Normalize()
	return &Suite{Cfg: cfg, Internet: in, Data: ds, Workers: workers}, nil
}

// DefaultConfig is the experiment-harness default: a few hundred ASes
// with every diversity mechanism on.
func DefaultConfig() gen.Config { return gen.DefaultConfig() }

// --- E1: Figure 2 -------------------------------------------------------

// Figure2 builds the histogram of the number of distinct AS-paths per
// (origin AS, observation AS) pair.
func (s *Suite) Figure2() (*stats.Histogram, string) {
	h := stats.NewHistogram()
	for _, n := range s.Data.DistinctPathsPerPair() {
		h.Add(n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E1 / Figure 2: distinct AS-paths per (origin AS, observation AS) pair\n")
	fmt.Fprintf(&b, "pairs=%d  pairs with >1 path: %s (paper: >30%%)\n\n", h.Total(), stats.Pct(int(float64(h.Total())*h.FracAbove(1)+0.5), h.Total()))
	h.Render(&b, 48, true)
	return h, b.String()
}

// --- E2: Table 1 --------------------------------------------------------

// Table1Quantiles are the percentiles the paper reports.
var Table1Quantiles = []float64{0.50, 0.75, 0.90, 0.95, 0.98, 0.99}

// Table1 computes the quantiles of the per-AS maximum number of distinct
// unique AS-paths received for any prefix.
func (s *Suite) Table1() (map[float64]int, string) {
	div := s.Data.MaxReceivedDiversity()
	samples := make([]int, 0, len(div))
	for _, v := range div {
		samples = append(samples, v)
	}
	out := make(map[float64]int, len(Table1Quantiles))
	tb := stats.NewTable("percentile", "max # unique AS-paths received")
	for _, q := range Table1Quantiles {
		v := stats.Quantile(samples, q)
		out[q] = v
		tb.AddRow(fmt.Sprintf("%.0f%%", q*100), fmt.Sprintf("%d", v))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E2 / Table 1: maximum route diversity received, per AS (n=%d ASes)\n\n%s", len(samples), tb.String())
	return out, b.String()
}

// --- E3/E4: Table 2 -----------------------------------------------------

// Table2Column is one column of Table 2.
type Table2Column struct {
	Summary *metrics.Summary
}

// Table2Result carries both baseline columns.
type Table2Result struct {
	ShortestPath Table2Column
	Policies     Table2Column
}

// Table2 evaluates the two single-router baselines of §3.3: plain
// shortest-AS-path, and inferred customer/peer policies (valley-free
// export + local-pref ranking).
func (s *Suite) Table2() (*Table2Result, string, error) {
	g := topology.FromDataset(s.Data)
	u := dataset.NewUniverse(s.Data)

	// Column 1: shortest path.
	m1, err := model.NewInitial(g, u)
	if err != nil {
		return nil, "", err
	}
	ev1, err := s.evaluate(m1, s.Data)
	if err != nil {
		return nil, "", err
	}

	// Column 2: relationship policies.
	tier1, err := g.Tier1Clique(s.Internet.Tier1[:2])
	if err != nil {
		return nil, "", err
	}
	inf := relation.Infer(s.Data, tier1)
	m2, err := model.NewInitial(g, u)
	if err != nil {
		return nil, "", err
	}
	m2.ApplyRelationshipPolicies(inf)
	ev2, err := s.evaluate(m2, s.Data)
	if err != nil {
		return nil, "", err
	}

	res := &Table2Result{
		ShortestPath: Table2Column{Summary: ev1.Summary},
		Policies:     Table2Column{Summary: ev2.Summary},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E3+E4 / Table 2: agreement between predicted and observed AS-paths (single quasi-router per AS)\n\n")
	tb := stats.NewTable("criteria", "Shortest Path", "Customer/Peering Policies")
	row := func(name string, f func(*metrics.Summary) int) {
		tb.AddRow(name,
			stats.Pct(f(ev1.Summary), ev1.Summary.Total),
			stats.Pct(f(ev2.Summary), ev2.Summary.Total))
	}
	row("AS-paths which agree", func(s *metrics.Summary) int { return s.Agree() })
	row("AS-paths which disagree", func(s *metrics.Summary) int { return s.Disagree() })
	row("  due to AS-path not available", func(s *metrics.Summary) int { return s.NoRIBIn })
	row("  shorter AS-path exists", func(s *metrics.Summary) int { return s.ByStep[bgp.StepASPathLen] })
	row("  lowest neighbor ID (tie-break)", func(s *metrics.Summary) int { return s.ByStep[bgp.StepRouterID] })
	row("  other decision steps", func(s *metrics.Summary) int {
		o := 0
		for st, n := range s.ByStep {
			if st != bgp.StepASPathLen && st != bgp.StepRouterID {
				o += n
			}
		}
		return o
	})
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\npaper: agree 23.5%% / 12.5%%; not available 49.4%% / 54.5%%; shorter 4.7%% / 5.7%%; tie-break 22.2%% / 27.3%%\n")
	return res, b.String(), nil
}

// --- E5/E6: refinement + validation (§5 headline) -----------------------

// RefineOutcome carries the training and validation results of the full
// pipeline.
type RefineOutcome struct {
	Refine        *model.RefineResult
	Train         *model.Evaluation
	Valid         *model.Evaluation
	Model         *model.Model
	TrainPaths    int
	ValidPaths    int
	QRHistogram   *stats.Histogram // quasi-routers per AS after refinement
	TrainFraction float64
}

// RunPipeline executes the §4 pipeline: split by observation point, build
// the initial model from all feeds, refine on the training half, and
// evaluate both halves.
func (s *Suite) RunPipeline(trainFrac float64, seed int64, cfg model.RefineConfig) (*RefineOutcome, error) {
	train, valid := s.Data.SplitByObsPoint(trainFrac, seed)
	g := topology.FromDataset(s.Data)
	u := dataset.NewUniverse(s.Data)
	m, err := model.NewInitial(g, u)
	if err != nil {
		return nil, err
	}
	res, err := m.Refine(train, cfg)
	if err != nil {
		return nil, err
	}
	evT, err := s.evaluate(m, train)
	if err != nil {
		return nil, err
	}
	evV, err := s.evaluate(m, valid)
	if err != nil {
		return nil, err
	}
	qh := stats.NewHistogram()
	for _, n := range m.QuasiRouterHistogram() {
		qh.Add(n)
	}
	return &RefineOutcome{
		Refine: res, Train: evT, Valid: evV, Model: m,
		TrainPaths: evT.Summary.Total, ValidPaths: evV.Summary.Total,
		QRHistogram: qh, TrainFraction: trainFrac,
	}, nil
}

// Describe renders the outcome in the §5 style.
func (o *RefineOutcome) Describe(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "refinement: iterations=%d converged=%v quasi-routers-added=%d filters=%d(-%d) med-rules=%d\n",
		o.Refine.Iterations, o.Refine.Converged, o.Refine.QuasiRoutersAdded,
		o.Refine.FiltersAdded, o.Refine.FiltersRemoved, o.Refine.MEDRules)
	st := o.Model.Stats()
	fmt.Fprintf(&b, "model: %d ASes, %d quasi-routers (max %d per AS), %d sessions, %d export denies, %d import actions\n\n",
		st.ASes, st.QuasiRouters, st.MaxQRsPerAS, st.Sessions, st.ExportDenies, st.ImportActions)

	tb := stats.NewTable("metric", "training", "validation")
	add := func(name string, f func(*metrics.Summary) int) {
		tb.AddRow(name,
			stats.Pct(f(o.Train.Summary), o.Train.Summary.Total),
			stats.Pct(f(o.Valid.Summary), o.Valid.Summary.Total))
	}
	add("RIB-Out match", func(s *metrics.Summary) int { return s.RIBOut })
	add("potential RIB-Out match", func(s *metrics.Summary) int { return s.PotentialRIBOut })
	add("matched down to tie-break", func(s *metrics.Summary) int { return s.DownToTieBreak() })
	add("RIB-In match (upper bound)", func(s *metrics.Summary) int { return s.RIBInMatches() })
	add("no RIB-In", func(s *metrics.Summary) int { return s.NoRIBIn })
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "paths: training=%d validation=%d\n", o.TrainPaths, o.ValidPaths)
	fmt.Fprintf(&b, "per-prefix RIB-Out coverage (validation): >=50%%: %d/%d  >=90%%: %d/%d  100%%: %d/%d\n",
		o.Valid.Coverage.At50, o.Valid.Coverage.Prefixes,
		o.Valid.Coverage.At90, o.Valid.Coverage.Prefixes,
		o.Valid.Coverage.At100, o.Valid.Coverage.Prefixes)
	fmt.Fprintf(&b, "quasi-routers per AS: p50=%d p90=%d p99=%d max=%d\n",
		o.QRHistogram.Quantile(0.5), o.QRHistogram.Quantile(0.9), o.QRHistogram.Quantile(0.99), o.QRHistogram.Max())
	fmt.Fprintf(&b, "paper headline: training matched exactly; >80%% of test cases matched down to the final tie-break\n")
	return b.String()
}

// EvalHeadline condenses one Evaluation into the match fractions the
// paper quotes, in a JSON-marshalable form.
type EvalHeadline struct {
	Paths              int     `json:"paths"`
	RIBOutFrac         float64 `json:"rib_out_frac"`
	PotentialFrac      float64 `json:"potential_frac"`
	DownToTieBreakFrac float64 `json:"down_to_tie_break_frac"`
	RIBInFrac          float64 `json:"rib_in_frac"`
}

func evalHeadline(ev *model.Evaluation) EvalHeadline {
	s := ev.Summary
	return EvalHeadline{
		Paths:              s.Total,
		RIBOutFrac:         s.Frac(s.RIBOut),
		PotentialFrac:      s.Frac(s.PotentialRIBOut),
		DownToTieBreakFrac: s.Frac(s.DownToTieBreak()),
		RIBInFrac:          s.Frac(s.RIBInMatches()),
	}
}

// RefineHeadline is the machine-readable digest of a RefineOutcome.
// RefineOutcome itself cannot be json.Marshaled (the embedded Model holds
// function-valued simulator state), so reports go through this type.
type RefineHeadline struct {
	Iterations        int          `json:"iterations"`
	Converged         bool         `json:"converged"`
	QuasiRoutersAdded int          `json:"quasi_routers_added"`
	FiltersAdded      int          `json:"filters_added"`
	FiltersRemoved    int          `json:"filters_removed"`
	MEDRules          int          `json:"med_rules"`
	Train             EvalHeadline `json:"train"`
	Valid             EvalHeadline `json:"valid"`
}

// Headline reduces the outcome to its headline numbers.
func (o *RefineOutcome) Headline() *RefineHeadline {
	return &RefineHeadline{
		Iterations:        o.Refine.Iterations,
		Converged:         o.Refine.Converged,
		QuasiRoutersAdded: o.Refine.QuasiRoutersAdded,
		FiltersAdded:      o.Refine.FiltersAdded,
		FiltersRemoved:    o.Refine.FiltersRemoved,
		MEDRules:          o.Refine.MEDRules,
		Train:             evalHeadline(o.Train),
		Valid:             evalHeadline(o.Valid),
	}
}

// --- E7: unseen prefixes (origin split) ---------------------------------

// UnseenPrefixes refines on half the origins' prefixes and evaluates on
// the other half (§4.2 alternative split; §4.7).
func (s *Suite) UnseenPrefixes(trainFrac float64, seed int64) (*RefineOutcome, error) {
	train, valid := s.Data.SplitByOrigin(trainFrac, seed)
	g := topology.FromDataset(s.Data)
	u := dataset.NewUniverse(s.Data)
	m, err := model.NewInitial(g, u)
	if err != nil {
		return nil, err
	}
	res, err := m.Refine(train, model.RefineConfig{})
	if err != nil {
		return nil, err
	}
	evT, err := s.evaluate(m, train)
	if err != nil {
		return nil, err
	}
	evV, err := s.evaluate(m, valid)
	if err != nil {
		return nil, err
	}
	qh := stats.NewHistogram()
	for _, n := range m.QuasiRouterHistogram() {
		qh.Add(n)
	}
	return &RefineOutcome{
		Refine: res, Train: evT, Valid: evV, Model: m,
		TrainPaths: evT.Summary.Total, ValidPaths: evV.Summary.Total,
		QRHistogram: qh, TrainFraction: trainFrac,
	}, nil
}

// --- E8: Figure 3 case study + prefixes-per-path ------------------------

// Figure3Result carries the headline numbers of the diversity case study.
type Figure3Result struct {
	Prefix        string  `json:"prefix"`
	AS            bgp.ASN `json:"as"`
	DistinctPaths int     `json:"distinct_paths"`
}

// Figure3 locates the (prefix, AS) pair with the highest received route
// diversity and renders its distinct paths, paper-Figure-3 style, plus
// the log-binned prefixes-per-path histogram of §3.2.
func (s *Suite) Figure3() (*Figure3Result, string) {
	type key struct {
		as     bgp.ASN
		prefix string
	}
	received := make(map[key]map[bgp.PathKey]bgp.Path)
	for _, r := range s.Data.Records {
		for i := 0; i+1 < len(r.Path); i++ {
			k := key{r.Path[i], r.Prefix}
			m := received[k]
			if m == nil {
				m = make(map[bgp.PathKey]bgp.Path)
				received[k] = m
			}
			suffix := r.Path[i+1:]
			m[suffix.Key()] = suffix
		}
	}
	var best key
	bestN := 0
	keys := make([]key, 0, len(received))
	for k := range received {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].as != keys[j].as {
			return keys[i].as < keys[j].as
		}
		return keys[i].prefix < keys[j].prefix
	})
	for _, k := range keys {
		if len(received[k]) > bestN {
			bestN = len(received[k])
			best = k
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E8 / Figure 3 style case study: prefix %s at AS %d receives %d distinct AS-paths:\n",
		best.prefix, best.as, bestN)
	var paths []string
	for _, p := range received[best] {
		paths = append(paths, p.String())
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&b, "  %d <- %s\n", best.as, p)
	}
	fmt.Fprintf(&b, "\nprefixes per AS-path (log-binned; §3.2 reports a straight line on log-log):\n")
	counts := make(map[int]int)
	for _, n := range s.Data.PrefixesPerPath() {
		counts[n]++
	}
	for _, bin := range stats.LogBins(counts, 2) {
		fmt.Fprintf(&b, "  %5d..%-5d paths: %d\n", bin.Lo, bin.Hi, bin.Count)
	}
	return &Figure3Result{Prefix: best.prefix, AS: best.as, DistinctPaths: bestN}, b.String()
}

// --- E10: ablations -----------------------------------------------------

// AblationRow is one ablation outcome.
type AblationRow struct {
	Name      string
	Converged bool
	TrainPct  float64 // training RIB-Out fraction
	ValidPct  float64 // validation down-to-tie-break fraction
	QRsAdded  int
	Diverged  int
}

// Ablations re-runs the pipeline with individual refinement mechanisms
// disabled (DESIGN.md E10).
func (s *Suite) Ablations(seed int64) ([]AblationRow, string, error) {
	cases := []struct {
		name string
		cfg  model.RefineConfig
	}{
		{"full (paper)", model.RefineConfig{}},
		{"no duplication", model.RefineConfig{DisableDuplication: true}},
		{"no MED ranking", model.RefineConfig{DisableMED: true}},
		{"local-pref instead", model.RefineConfig{UseLocalPref: true}},
	}
	var rows []AblationRow
	tb := stats.NewTable("ablation", "converged", "train RIB-Out", "valid down-to-tie-break", "QRs added", "diverged")
	for _, c := range cases {
		o, err := s.RunPipeline(0.5, seed, c.cfg)
		if err != nil {
			return nil, "", err
		}
		row := AblationRow{
			Name:      c.name,
			Converged: o.Refine.Converged,
			TrainPct:  o.Train.Summary.Frac(o.Train.Summary.RIBOut),
			ValidPct:  o.Valid.Summary.Frac(o.Valid.Summary.DownToTieBreak()),
			QRsAdded:  o.Refine.QuasiRoutersAdded,
			Diverged:  o.Refine.DivergedPrefixes + o.Train.Diverged,
		}
		rows = append(rows, row)
		tb.AddRow(c.name, fmt.Sprintf("%v", row.Converged),
			fmt.Sprintf("%.1f%%", 100*row.TrainPct),
			fmt.Sprintf("%.1f%%", 100*row.ValidPct),
			fmt.Sprintf("%d", row.QRsAdded), fmt.Sprintf("%d", row.Diverged))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E10: refinement ablations (observation-point split)\n\n%s", tb.String())
	return rows, b.String(), nil
}

// --- E11: topology statistics -------------------------------------------

// TopologyStats renders the §3.1 dataset statistics.
func (s *Suite) TopologyStats() (topology.Stats, string, error) {
	st, err := topology.ComputeStats(s.Data, s.Internet.Tier1[:2])
	if err != nil {
		return st, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E11 / §3.1 dataset statistics\n\n")
	tb := stats.NewTable("quantity", "value", "paper (Nov 2005)")
	tb.AddRow("records", fmt.Sprintf("%d", s.Data.Len()), "4,730,222 paths")
	tb.AddRow("ASes", fmt.Sprintf("%d", st.ASes), "21,178")
	tb.AddRow("AS edges", fmt.Sprintf("%d", st.Edges), "58,903")
	tb.AddRow("tier-1 clique", fmt.Sprintf("%v", st.Tier1), "10 ASes")
	tb.AddRow("level-2 ASes", fmt.Sprintf("%d", st.Level2), "7,994")
	tb.AddRow("other ASes", fmt.Sprintf("%d", st.Other), "13,174")
	tb.AddRow("transit ASes", fmt.Sprintf("%d", st.Transit), "3,486")
	tb.AddRow("single-homed stubs", fmt.Sprintf("%d", st.SingleHomedStub), "6,611")
	tb.AddRow("multi-homed stubs", fmt.Sprintf("%d", st.MultiHomedStub), "11,077")
	tb.AddRow("ASes after pruning", fmt.Sprintf("%d", st.PrunedASes), "14,563")
	tb.AddRow("edges after pruning", fmt.Sprintf("%d", st.PrunedEdges), "52,288")
	b.WriteString(tb.String())
	return st, b.String(), nil
}

// RefineConfigDefault returns the paper's refinement configuration
// (duplication + filters + MED).
func RefineConfigDefault() model.RefineConfig { return model.RefineConfig{} }

// MultiPrefixResult carries the headline numbers of the multi-prefix
// study.
type MultiPrefixResult struct {
	PrefixesPerOrigin int     `json:"prefixes_per_origin"`
	Prefixes          int     `json:"prefixes"`
	MultiPrefixPaths  int     `json:"multi_prefix_paths"`
	DiversePairsFrac  float64 `json:"diverse_pairs_frac"`
}

// MultiPrefixStudy (E8b) re-runs the §3.2 data analysis with origins
// announcing several prefixes (gen.Config.PrefixesPerOrigin), which is
// what gives the paper's prefixes-per-path histogram its heavy tail:
// popular AS-paths carry many prefixes while per-prefix weird policies
// make some prefixes of the same origin take different routes.
func MultiPrefixStudy(cfg gen.Config, prefixesPerOrigin int) (*MultiPrefixResult, string, error) {
	cfg.PrefixesPerOrigin = prefixesPerOrigin
	s, err := NewSuite(cfg)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E8b / §3.2 multi-prefix study (up to %d prefixes per origin; %d prefixes total)\n\n",
		prefixesPerOrigin, len(s.Data.Prefixes()))

	counts := make(map[int]int)
	multi := 0
	for _, n := range s.Data.PrefixesPerPath() {
		counts[n]++
		if n > 1 {
			multi++
		}
	}
	fmt.Fprintf(&b, "prefixes per AS-path (log-binned; %d paths carry more than one prefix):\n", multi)
	for _, bin := range stats.LogBins(counts, 2) {
		fmt.Fprintf(&b, "  %5d..%-5d paths: %d\n", bin.Lo, bin.Hi, bin.Count)
	}

	h := stats.NewHistogram()
	for _, n := range s.Data.DistinctPathsPerPair() {
		h.Add(n)
	}
	fmt.Fprintf(&b, "\nAS pairs with more than one distinct path: %s (cf. E1)\n",
		stats.Pct(int(float64(h.Total())*h.FracAbove(1)+0.5), h.Total()))
	res := &MultiPrefixResult{
		PrefixesPerOrigin: prefixesPerOrigin,
		Prefixes:          len(s.Data.Prefixes()),
		MultiPrefixPaths:  multi,
		DiversePairsFrac:  h.FracAbove(1),
	}
	return res, b.String(), nil
}

// CombinedSplit (§4.2: "one can combine both approaches") partitions both
// observation points and originating ASes. The model trains on training
// feeds' records for training origins only, and is evaluated on the fully
// unseen quadrant: held-out feeds observing held-out origins' prefixes —
// the hardest prediction task the paper defines.
func (s *Suite) CombinedSplit(trainFrac float64, seed int64) (*RefineOutcome, error) {
	obsTrain := s.Data.AssignObsPoints(trainFrac, seed)
	orgTrain := s.Data.AssignOrigins(trainFrac, seed+1)
	train, _ := s.Data.Partition(func(r *dataset.Record) bool {
		o, _ := r.Path.Origin()
		return obsTrain[r.Obs] && orgTrain[o]
	})
	valid, _ := s.Data.Partition(func(r *dataset.Record) bool {
		o, _ := r.Path.Origin()
		return !obsTrain[r.Obs] && !orgTrain[o]
	})
	g := topology.FromDataset(s.Data)
	u := dataset.NewUniverse(s.Data)
	m, err := model.NewInitial(g, u)
	if err != nil {
		return nil, err
	}
	res, err := m.Refine(train, model.RefineConfig{})
	if err != nil {
		return nil, err
	}
	evT, err := s.evaluate(m, train)
	if err != nil {
		return nil, err
	}
	evV, err := s.evaluate(m, valid)
	if err != nil {
		return nil, err
	}
	qh := stats.NewHistogram()
	for _, n := range m.QuasiRouterHistogram() {
		qh.Add(n)
	}
	return &RefineOutcome{
		Refine: res, Train: evT, Valid: evV, Model: m,
		TrainPaths: evT.Summary.Total, ValidPaths: evV.Summary.Total,
		QRHistogram: qh, TrainFraction: trainFrac,
	}, nil
}

// ComplexityByLevel (E12) answers the paper's §1 promise — "determine
// precisely where internal details matter, and how much" — by breaking
// the refined model's complexity (quasi-routers beyond the first, export
// filters, MED rules) down by hierarchy level.
func (s *Suite) ComplexityByLevel(o *RefineOutcome) (string, error) {
	g := topology.FromDataset(s.Data)
	tier1, err := g.Tier1Clique(s.Internet.Tier1[:2])
	if err != nil {
		return "", err
	}
	levels := g.Levels(tier1)

	type row struct {
		ases, extraQRs, filters, medRules int
	}
	byLevel := map[topology.Level]*row{
		topology.Level1:     {},
		topology.Level2:     {},
		topology.LevelOther: {},
	}
	m := o.Model
	for asn, n := range m.QuasiRouterHistogram() {
		r := byLevel[levels[asn]]
		if r == nil {
			continue
		}
		r.ases++
		r.extraQRs += n - 1
	}
	for _, qr := range m.Net.Routers() {
		r := byLevel[levels[qr.AS]]
		if r == nil {
			continue
		}
		for _, p := range qr.Peers() {
			r.filters += p.ExportDenyCount() // filters installed at this AS's egress
			r.medRules += p.ImportActionCount()
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E12 / §1: where internal details matter — model complexity by hierarchy level\n\n")
	tb := stats.NewTable("level", "ASes", "extra quasi-routers", "egress filters", "import rules")
	for _, l := range []topology.Level{topology.Level1, topology.Level2, topology.LevelOther} {
		r := byLevel[l]
		tb.AddRow(l.String(),
			fmt.Sprintf("%d", r.ases),
			fmt.Sprintf("%d (%.2f/AS)", r.extraQRs, safeDiv(r.extraQRs, r.ases)),
			fmt.Sprintf("%d (%.1f/AS)", r.filters, safeDiv(r.filters, r.ases)),
			fmt.Sprintf("%d (%.1f/AS)", r.medRules, safeDiv(r.medRules, r.ases)))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nreading: extra quasi-routers mark ASes whose internal structure is\n"+
		"observable in routing; the paper's expectation is that the well-connected\n"+
		"core needs them most.\n")
	return b.String(), nil
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// IterationsRow is one seed's outcome of the E14 convergence study.
type IterationsRow struct {
	Seed       int64   `json:"seed"`
	MaxPathLen int     `json:"max_path_len"`
	Iterations int     `json:"iterations"`
	Ratio      float64 `json:"ratio"`
	Converged  bool    `json:"converged"`
}

// IterationsVsPathLength (E14) quantifies the §4.6 convergence claim:
// "Perfect RIB-Out matches are achieved after a total number of
// iterations that is a multiple of the maximum AS-path length." It runs
// the training pipeline across several split seeds and reports the
// iterations-to-convergence against the longest observed path.
func (s *Suite) IterationsVsPathLength(seeds []int64) ([]IterationsRow, string, error) {
	var rows []IterationsRow
	tb := stats.NewTable("split seed", "max path length", "iterations", "ratio", "converged")
	for _, seed := range seeds {
		o, err := s.RunPipeline(0.5, seed, model.RefineConfig{})
		if err != nil {
			return nil, "", err
		}
		ratio := float64(o.Refine.Iterations) / float64(o.Refine.MaxPathLen)
		rows = append(rows, IterationsRow{
			Seed: seed, MaxPathLen: o.Refine.MaxPathLen,
			Iterations: o.Refine.Iterations, Ratio: ratio,
			Converged: o.Refine.Converged,
		})
		tb.AddRow(fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d", o.Refine.MaxPathLen),
			fmt.Sprintf("%d", o.Refine.Iterations),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%v", o.Refine.Converged))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E14 / §4.6: iterations to convergence vs maximum AS-path length\n\n%s", tb.String())
	fmt.Fprintf(&b, "\npaper: \"a total number of iterations that is a multiple of the maximum\n"+
		"AS-path length\" — the ratio column stays below ~1-2 in practice.\n")
	return rows, b.String(), nil
}
