// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers).
//
// Usage:
//
//	experiments             # all experiments at the default scale
//	experiments -seed 7 -scale 2
//	experiments -only table2,pipeline
//	experiments -json report.json          # machine-readable headline numbers
//	experiments -debug-addr :8080          # /metrics + /debug/pprof while running
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"asmodel/internal/experiments"
	"asmodel/internal/metrics"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/topology"
)

// Exit codes match cmd/asmodel's contract: 0 success, 1 runtime
// failure, 2 usage error, 3 interrupted by SIGINT/SIGTERM.
const (
	exitRuntime     = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.Int("scale", 1, "topology scale multiplier")
	only := flag.String("only", "", "comma-separated subset: stats,figure2,table1,table2,pipeline,unseen,combined,figure3,multiprefix,iterations,whatif,ablations")
	jsonPath := flag.String("json", "", "write headline numbers as JSON to this file")
	reportPath := flag.String("report", "", "write a schema-versioned JSON run report (per-section timing + metric snapshot) to this file")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	workers := flag.Int("workers", pool.DefaultWorkers(), "worker-pool size for ground-truth generation and evaluations (1 = sequential; same results at any count)")
	flag.Parse()

	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -workers must be >= 1")
		os.Exit(exitUsage)
	}

	// SIGINT/SIGTERM cancel the context so a long evaluation run dies
	// cleanly at the next section boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(exitRuntime)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/metrics (also /metrics.json, /debug/vars, /debug/pprof)\n", srv.Addr)
	}
	if err := run(ctx, *seed, *scale, *workers, *only, *jsonPath, *reportPath); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(exitInterrupted)
		}
		os.Exit(exitRuntime)
	}
}

// report collects every experiment's headline numbers for -json. Sections
// not selected via -only stay nil and are omitted from the output.
type report struct {
	Seed        int64                             `json:"seed"`
	Scale       int                               `json:"scale"`
	ASes        int                               `json:"ases"`
	Records     int                               `json:"records"`
	Prefixes    int                               `json:"prefixes"`
	ObsPoints   int                               `json:"obs_points"`
	Stats       *topology.Stats                   `json:"stats,omitempty"`
	Figure2     *figure2Report                    `json:"figure2,omitempty"`
	Table1      map[string]int                    `json:"table1,omitempty"`
	Table2      *table2Report                     `json:"table2,omitempty"`
	Pipeline    *experiments.RefineHeadline       `json:"pipeline,omitempty"`
	Unseen      *experiments.RefineHeadline       `json:"unseen,omitempty"`
	Combined    *experiments.RefineHeadline       `json:"combined,omitempty"`
	Figure3     *experiments.Figure3Result        `json:"figure3,omitempty"`
	MultiPrefix *experiments.MultiPrefixResult    `json:"multiprefix,omitempty"`
	Iterations  []experiments.IterationsRow       `json:"iterations,omitempty"`
	WhatIf      *experiments.WhatIfFidelityResult `json:"whatif,omitempty"`
	Ablations   []experiments.AblationRow         `json:"ablations,omitempty"`
}

type figure2Report struct {
	Pairs            int     `json:"pairs"`
	DiversePairsFrac float64 `json:"diverse_pairs_frac"`
	MaxDistinctPaths int     `json:"max_distinct_paths"`
}

type table2Report struct {
	ShortestPath *metrics.Summary `json:"shortest_path"`
	Policies     *metrics.Summary `json:"policies"`
}

func run(ctx context.Context, seed int64, scale, workers int, only, jsonPath, reportPath string) error {
	want := func(name string) bool {
		if only == "" {
			return true
		}
		for _, part := range strings.Split(only, ",") {
			if strings.TrimSpace(part) == name {
				return true
			}
		}
		return false
	}

	var runRep *obs.RunReport
	var rec *obs.SpanRecorder
	root := (*obs.Span)(nil)
	if reportPath != "" {
		runRep = obs.NewRunReport("experiments", os.Args[1:])
		runRep.Seed = seed
		rec = obs.NewSpanRecorder(nil, "experiments", obs.SpanOptions{})
		root = rec.Root()
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	if scale > 1 {
		cfg.NumTier2 *= scale
		cfg.NumTier3 *= scale
		cfg.NumStub *= scale
		cfg.NumVantageASes *= scale
	}
	fmt.Printf("== generating synthetic Internet (seed=%d, %d ASes) ==\n\n",
		seed, cfg.NumTier1+cfg.NumTier2+cfg.NumTier3+cfg.NumStub)
	gspan := root.StartChild("generate", obs.A("seed", seed), obs.A("scale", scale))
	s, err := experiments.NewSuiteWorkers(cfg, workers)
	gspan.End()
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d records, %d prefixes, %d observation points; %d weird policies (%d reverted)\n\n",
		s.Data.Len(), len(s.Data.Prefixes()), len(s.Data.ObsPoints()), len(s.Internet.Weird), s.Internet.QuirksReverted)

	rep := &report{
		Seed: seed, Scale: scale,
		ASes:      cfg.NumTier1 + cfg.NumTier2 + cfg.NumTier3 + cfg.NumStub,
		Records:   s.Data.Len(),
		Prefixes:  len(s.Data.Prefixes()),
		ObsPoints: len(s.Data.ObsPoints()),
	}

	section := func(name string, f func() (string, error)) error {
		if !want(name) {
			return nil
		}
		// Interrupts land between sections: each experiment is all-or-
		// nothing, so a canceled run never prints a half-computed table.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sp := root.StartChild(name)
		out, err := f()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(out)
		fmt.Println(strings.Repeat("-", 72))
		return nil
	}

	if err := section("stats", func() (string, error) {
		st, out, err := s.TopologyStats()
		rep.Stats = &st
		return out, err
	}); err != nil {
		return err
	}
	if err := section("figure2", func() (string, error) {
		h, out := s.Figure2()
		rep.Figure2 = &figure2Report{
			Pairs:            h.Total(),
			DiversePairsFrac: h.FracAbove(1),
			MaxDistinctPaths: h.Max(),
		}
		return out, nil
	}); err != nil {
		return err
	}
	if err := section("table1", func() (string, error) {
		qs, out := s.Table1()
		rep.Table1 = make(map[string]int, len(qs))
		for q, v := range qs {
			rep.Table1[fmt.Sprintf("p%g", 100*q)] = v
		}
		return out, nil
	}); err != nil {
		return err
	}
	if err := section("table2", func() (string, error) {
		res, out, err := s.Table2()
		if err == nil {
			rep.Table2 = &table2Report{
				ShortestPath: res.ShortestPath.Summary,
				Policies:     res.Policies.Summary,
			}
		}
		return out, err
	}); err != nil {
		return err
	}
	if err := section("pipeline", func() (string, error) {
		o, err := s.RunPipeline(0.5, seed, experiments.RefineConfigDefault())
		if err != nil {
			return "", err
		}
		rep.Pipeline = o.Headline()
		out := o.Describe("E5+E6 / §5: refinement on training observation points, prediction for held-out ones")
		complexity, err := s.ComplexityByLevel(o)
		if err != nil {
			return "", err
		}
		return out + "\n" + complexity, nil
	}); err != nil {
		return err
	}
	if err := section("unseen", func() (string, error) {
		o, err := s.UnseenPrefixes(0.5, seed)
		if err != nil {
			return "", err
		}
		rep.Unseen = o.Headline()
		return o.Describe("E7 / §4.7: origin split — predicting prefixes of unseen origins"), nil
	}); err != nil {
		return err
	}
	if err := section("combined", func() (string, error) {
		o, err := s.CombinedSplit(0.5, seed)
		if err != nil {
			return "", err
		}
		rep.Combined = o.Headline()
		return o.Describe("E7b / §4.2 combined split — held-out feeds observing held-out origins"), nil
	}); err != nil {
		return err
	}
	if err := section("figure3", func() (string, error) {
		res, out := s.Figure3()
		rep.Figure3 = res
		return out, nil
	}); err != nil {
		return err
	}
	if err := section("multiprefix", func() (string, error) {
		mpCfg := cfg
		mpCfg.NumTier3 /= 2
		mpCfg.NumStub /= 2
		res, out, err := experiments.MultiPrefixStudy(mpCfg, 3)
		rep.MultiPrefix = res
		return out, err
	}); err != nil {
		return err
	}
	if err := section("iterations", func() (string, error) {
		rows, out, err := s.IterationsVsPathLength([]int64{seed, seed + 1, seed + 2})
		rep.Iterations = rows
		return out, err
	}); err != nil {
		return err
	}
	if err := section("whatif", func() (string, error) {
		res, out, err := s.WhatIfFidelity(8, 3)
		rep.WhatIf = res
		return out, err
	}); err != nil {
		return err
	}
	if err := section("ablations", func() (string, error) {
		rows, out, err := s.Ablations(seed)
		rep.Ablations = rows
		return out, err
	}); err != nil {
		return err
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("writing %s: %w", jsonPath, err)
		}
		fmt.Printf("headline numbers written to %s\n", jsonPath)
	}
	if runRep != nil {
		if err := rec.Finish(); err != nil {
			return err
		}
		runRep.AddSection("headline", rep)
		runRep.Finish(rec, obs.Default())
		if err := runRep.WriteFile(reportPath); err != nil {
			return fmt.Errorf("writing run report %s: %w", reportPath, err)
		}
		fmt.Printf("run report written to %s\n", reportPath)
	}
	return nil
}
