// Command topogen generates a synthetic router-level Internet with
// ground-truth routing and writes the vantage-point observations as a
// dataset (and optionally as an MRT TABLE_DUMP_V2 file) — the substitute
// for collecting Routeviews/RIPE feeds.
//
// Usage:
//
//	topogen [flags] > paths.txt
//	topogen -mrt rib.mrt -o paths.txt
//	topogen -workers 8 -stubs 2000      # parallel ground-truth simulation
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"asmodel/internal/gen"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
)

// Exit codes match cmd/asmodel's contract: 0 success, 1 runtime
// failure, 2 usage error, 3 interrupted by SIGINT/SIGTERM.
const (
	exitRuntime     = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	cfg := gen.DefaultConfig()
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.IntVar(&cfg.NumTier1, "tier1", cfg.NumTier1, "number of tier-1 ASes (fully meshed clique)")
	flag.IntVar(&cfg.NumTier2, "tier2", cfg.NumTier2, "number of tier-2 transit ASes")
	flag.IntVar(&cfg.NumTier3, "tier3", cfg.NumTier3, "number of tier-3 regional ASes")
	flag.IntVar(&cfg.NumStub, "stubs", cfg.NumStub, "number of stub ASes")
	flag.Float64Var(&cfg.MultiHomeProb, "multihome", cfg.MultiHomeProb, "stub multi-homing probability")
	flag.Float64Var(&cfg.ParallelLinkProb, "parallel", cfg.ParallelLinkProb, "parallel inter-AS link probability")
	flag.Float64Var(&cfg.WeirdPolicyFrac, "weird", cfg.WeirdPolicyFrac, "fraction of prefixes with schema-violating policies")
	flag.IntVar(&cfg.NumVantageASes, "vantage", cfg.NumVantageASes, "number of ASes hosting observation points")
	out := flag.String("o", "-", "dataset output file ('-' for stdout)")
	mrtOut := flag.String("mrt", "", "also write the dataset as an MRT TABLE_DUMP_V2 file")
	quiet := flag.Bool("q", false, "suppress the summary on stderr")
	workers := flag.Int("workers", pool.DefaultWorkers(), "worker-pool size for the ground-truth simulation (1 = sequential; identical output at any count)")
	report := flag.String("report", "", "write a schema-versioned JSON run report to this file")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	flag.Parse()

	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "topogen: -workers must be >= 1")
		os.Exit(exitUsage)
	}
	// SIGINT/SIGTERM cancel the context so a long parallel generation
	// dies cleanly between prefixes instead of mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "topogen:", err)
			os.Exit(exitRuntime)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/metrics (also /metrics.json, /debug/vars, /debug/pprof)\n", srv.Addr)
	}
	if err := run(ctx, cfg, *out, *mrtOut, *quiet, *workers, *report, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(exitInterrupted)
		}
		os.Exit(exitRuntime)
	}
}

func run(ctx context.Context, cfg gen.Config, out, mrtOut string, quiet bool, workers int, reportPath string, args []string) error {
	var rep *obs.RunReport
	var rec *obs.SpanRecorder
	if reportPath != "" {
		rep = obs.NewRunReport("topogen", args)
		rep.Seed = cfg.Seed
		rec = obs.NewSpanRecorder(nil, "topogen", obs.SpanOptions{})
		ctx = obs.ContextWithSpan(ctx, rec.Root())
	}

	_, gspan := obs.StartSpan(ctx, "generate", obs.A("seed", cfg.Seed))
	in, err := gen.Generate(cfg)
	gspan.End()
	if err != nil {
		return err
	}
	gspan.Set(obs.A("ases", len(in.ASNs())), obs.A("routers", in.RS.Net.NumRouters()))

	ds, err := in.RunAllParallel(ctx, workers)
	if err != nil {
		return err
	}

	_, wspan := obs.StartSpan(ctx, "write", obs.A("out", out), obs.A("mrt", mrtOut))
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			wspan.End()
			return err
		}
		defer f.Close()
		w = f
	}
	if err := ds.Write(w); err != nil {
		wspan.End()
		return err
	}
	if mrtOut != "" {
		f, err := os.Create(mrtOut)
		if err != nil {
			wspan.End()
			return err
		}
		defer f.Close()
		if err := mrt.FromDataset(f, ds, uint32(gen.CollectionTime)); err != nil {
			wspan.End()
			return err
		}
	}
	wspan.Set(obs.A("records", ds.Len()))
	wspan.End()

	if !quiet {
		fmt.Fprintf(os.Stderr, "generated %d ASes (%d tier-1), %d routers, %d sessions, %d vantage points\n",
			len(in.ASNs()), len(in.Tier1), in.RS.Net.NumRouters(), in.RS.Net.NumSessions(), len(in.VantagePoints()))
		fmt.Fprintf(os.Stderr, "dataset: %d records, %d prefixes; weird policies: %d applied, %d reverted\n",
			ds.Len(), len(ds.Prefixes()), len(in.Weird), in.QuirksReverted)
	}
	if rep != nil {
		if err := rec.Finish(); err != nil {
			return err
		}
		rep.AddSection("generate", map[string]interface{}{
			"ases": len(in.ASNs()), "tier1": len(in.Tier1),
			"routers": in.RS.Net.NumRouters(), "sessions": in.RS.Net.NumSessions(),
			"vantage_points": len(in.VantagePoints()),
			"records":        ds.Len(), "prefixes": len(ds.Prefixes()),
			"weird_applied": len(in.Weird), "weird_reverted": in.QuirksReverted,
		})
		rep.Finish(rec, obs.Default())
		if err := rep.WriteFile(reportPath); err != nil {
			return fmt.Errorf("writing run report %s: %w", reportPath, err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "run report written to %s\n", reportPath)
		}
	}
	return nil
}
