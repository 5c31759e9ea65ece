// Command asmodel builds, refines, evaluates and queries AS-routing
// models from BGP path datasets.
//
// Subcommands:
//
//	asmodel stats   -in paths.txt -tier1 10,11          # §3.1 statistics
//	asmodel refine  -in paths.txt [-train-frac 0.5] [-save model.txt]
//	asmodel predict -in paths.txt -prefix P40 -as 10    # or -model model.txt
//	asmodel whatif  -in paths.txt -prefix P40 -a 10 -b 20 -watch 30,40
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/durable"
	"asmodel/internal/ingest"
	"asmodel/internal/model"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/stats"
	"asmodel/internal/topology"
)

// Exit codes, documented in the README: usage errors are distinguishable
// from runtime failures, and an interrupted (but cleanly checkpointed)
// refinement from both.
const (
	exitOK          = 0
	exitRuntime     = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// usageError marks an error as the caller's fault (bad flags/arguments)
// so run maps it to exitUsage. quiet suppresses re-printing when the
// flag package already reported the problem.
type usageError struct {
	err   error
	quiet bool
}

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, a ...interface{}) error {
	return usageError{err: fmt.Errorf(format, a...)}
}

// parseFlags parses with ContinueOnError semantics: -h/-help exits
// cleanly, malformed flags become (already-reported) usage errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return usageError{err: err, quiet: true}
	}
	return nil
}

// debugServer holds the process-lifetime debug endpoint started by
// -debug-addr, exposed as a variable so tests can reach its resolved
// address after running a command with ":0".
var debugServer *obs.Server

// startDebugServer brings up /metrics, /metrics.json, /debug/vars and
// /debug/pprof on addr. Idempotent: a second -debug-addr in the same
// process reuses the first server.
func startDebugServer(addr string) error {
	if debugServer != nil {
		return nil
	}
	srv, err := obs.Serve(addr, obs.Default())
	if err != nil {
		return err
	}
	debugServer = srv
	fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/metrics (also /metrics.json, /debug/vars, /debug/pprof)\n", srv.Addr)
	return nil
}

func main() {
	// SIGINT/SIGTERM cancel the context; long-running refinements write a
	// final checkpoint and exit cleanly with exitInterrupted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:]))
}

// run dispatches the subcommand and maps its error to an exit code:
// 0 success, 1 runtime failure, 2 usage error, 3 interrupted.
func run(ctx context.Context, args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	var err error
	switch args[0] {
	case "stats":
		err = cmdStats(ctx, args[1:])
	case "refine":
		err = cmdRefine(ctx, args[1:])
	case "predict":
		err = cmdPredict(ctx, args[1:])
	case "whatif":
		err = cmdWhatif(ctx, args[1:])
	case "explain":
		err = cmdExplain(ctx, args[1:])
	case "evaluate":
		err = cmdEvaluate(ctx, args[1:])
	case "stream":
		err = cmdStream(ctx, args[1:])
	default:
		usage()
		return exitUsage
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return exitOK
	default:
	}
	var ierr *model.InterruptedError
	if errors.As(err, &ierr) {
		fmt.Fprintln(os.Stderr, "asmodel:", err)
		if ierr.Checkpoint != "" {
			if ierr.Op == "stream" {
				fmt.Fprintf(os.Stderr, "asmodel: resume by re-running the same asmodel stream command; the committed cursor in %s picks up where this run stopped\n", ierr.Checkpoint)
			} else {
				fmt.Fprintf(os.Stderr, "asmodel: resume with: asmodel refine -resume -checkpoint %s <original flags>\n", ierr.Checkpoint)
			}
		}
		return exitInterrupted
	}
	var uerr usageError
	if errors.As(err, &uerr) {
		if !uerr.quiet {
			fmt.Fprintln(os.Stderr, "asmodel:", err)
		}
		return exitUsage
	}
	fmt.Fprintln(os.Stderr, "asmodel:", err)
	return exitRuntime
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: asmodel <stats|refine|predict|whatif> [flags]
  stats   -in paths.txt -tier1 10,11            topology statistics (§3.1)
  refine  -in paths.txt -train-frac 0.5 -seed 1 build, refine, evaluate (§4-5)
  predict -in paths.txt -prefix P40 -as 10      predict an AS's paths
  whatif  -in paths.txt -prefix P40 -a 10 -b 20 -watch 30,40  de-peering impact
  explain -in paths.txt -prefix P40 -as 10      decision process breakdown
  evaluate -model model.txt -in paths.txt       score a saved model on a dataset
  stream  -in updates.mrt -state s.state        incremental refinement over a BGP update stream`)
}

// ingestFlags registers the shared -strict / -max-record-errors flags
// on a subcommand's flag set and returns a getter for the resulting
// ingest options.
func ingestFlags(fs *flag.FlagSet) func() ingest.Options {
	strict := fs.Bool("strict", false, "abort on the first malformed dataset line instead of skipping it")
	maxErrs := fs.Int("max-record-errors", ingest.DefaultMaxRecordErrors,
		"malformed lines tolerated before giving up (-1 = unlimited; ignored with -strict)")
	return func() ingest.Options {
		return ingest.Options{Strict: *strict, MaxRecordErrors: *maxErrs}
	}
}

// cmdObs is one invocation's observability bundle: the span recorder
// feeding stage accounting (and, for refine's -trace, the trace sink)
// plus the -report run report. The zero state (no -report, no sink) is
// inert: rec is nil, so every span started under the context is the
// nil no-op span.
type cmdObs struct {
	report *obs.RunReport
	rec    *obs.SpanRecorder
	path   string
}

// newCmdObs builds the bundle and returns a context carrying the root
// span. sink may be nil (spans are still collected for the report);
// reportPath may be "" (spans are only emitted to the sink).
func newCmdObs(ctx context.Context, command string, args []string, reportPath string, sink *obs.TraceSink, opts obs.SpanOptions) (context.Context, *cmdObs) {
	co := &cmdObs{path: reportPath}
	if reportPath == "" && sink == nil {
		return ctx, co
	}
	co.rec = obs.NewSpanRecorder(sink, command, opts)
	ctx = obs.ContextWithSpan(ctx, co.rec.Root())
	if reportPath != "" {
		co.report = obs.NewRunReport(command, args)
	}
	return ctx, co
}

// section attaches a command-specific payload to the report, if any.
func (co *cmdObs) section(name string, v interface{}) {
	if co.report != nil {
		co.report.AddSection(name, v)
	}
}

// finish emits the span tree to the sink and writes the run report.
func (co *cmdObs) finish() error {
	if co.rec == nil {
		return nil
	}
	err := co.rec.Finish()
	if co.report != nil {
		co.report.Finish(co.rec, obs.Default())
		if werr := co.report.WriteFile(co.path); werr != nil {
			if err == nil {
				err = fmt.Errorf("writing run report %s: %w", co.path, werr)
			}
		} else {
			fmt.Printf("run report written to %s\n", co.path)
		}
	}
	return err
}

// loadDataset reads and normalizes a dataset under an "ingest" span,
// returning the ingest report for the -report sections.
func loadDataset(ctx context.Context, path string, opts ingest.Options) (*dataset.Dataset, *ingest.Report, error) {
	_, span := obs.StartSpan(ctx, "ingest", obs.A("source", path))
	defer span.End()
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ds, rep, err := dataset.ReadReport(f, opts)
	if rep != nil {
		rep.Source = path
		if rep.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "asmodel: %s\n", rep)
		}
		span.Set(obs.A("records", rep.Records), obs.A("skipped", rep.Skipped))
	}
	if err != nil {
		return nil, rep, err
	}
	return ds.Normalize(), rep, nil
}

func parseASList(s string) ([]bgp.ASN, error) {
	if s == "" {
		return nil, nil
	}
	var out []bgp.ASN
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad AS number %q: %w", part, err)
		}
		out = append(out, bgp.ASN(v))
	}
	return out, nil
}

func cmdStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file")
	tier1 := fs.String("tier1", "", "comma-separated tier-1 seed ASes")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("stats: -in is required")
	}
	seeds, err := parseASList(*tier1)
	if err != nil {
		return usagef("stats: %v", err)
	}
	if len(seeds) == 0 {
		return usagef("stats: -tier1 seeds are required (e.g. -tier1 10,11)")
	}
	ctx, co := newCmdObs(ctx, "asmodel stats", args, *report, nil, obs.SpanOptions{})
	ds, rep, err := loadDataset(ctx, *in, iopts())
	if err != nil {
		return err
	}
	co.section("ingest", rep)
	_, tspan := obs.StartSpan(ctx, "stats")
	st, err := topology.ComputeStats(ds, seeds)
	tspan.End()
	if err != nil {
		return err
	}
	co.section("stats", st)
	tb := stats.NewTable("quantity", "value")
	tb.AddRow("records", fmt.Sprintf("%d", ds.Len()))
	tb.AddRow("observation points", fmt.Sprintf("%d", len(ds.ObsPoints())))
	tb.AddRow("observation ASes", fmt.Sprintf("%d", len(ds.ObsASes())))
	tb.AddRow("ASes", fmt.Sprintf("%d", st.ASes))
	tb.AddRow("AS edges", fmt.Sprintf("%d", st.Edges))
	tb.AddRow("tier-1 clique", fmt.Sprintf("%v", st.Tier1))
	tb.AddRow("level-2 ASes", fmt.Sprintf("%d", st.Level2))
	tb.AddRow("other ASes", fmt.Sprintf("%d", st.Other))
	tb.AddRow("transit ASes", fmt.Sprintf("%d", st.Transit))
	tb.AddRow("single-homed stubs", fmt.Sprintf("%d", st.SingleHomedStub))
	tb.AddRow("multi-homed stubs", fmt.Sprintf("%d", st.MultiHomedStub))
	tb.AddRow("ASes after stub pruning", fmt.Sprintf("%d", st.PrunedASes))
	tb.AddRow("edges after stub pruning", fmt.Sprintf("%d", st.PrunedEdges))
	fmt.Print(tb.String())
	return co.finish()
}

func cmdRefine(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("refine", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file")
	trainFrac := fs.Float64("train-frac", 0.5, "fraction of observation points used for training")
	seed := fs.Int64("seed", 1, "split seed")
	byOrigin := fs.Bool("by-origin", false, "split by originating AS instead of observation point")
	verbose := fs.Bool("v", false, "log refinement progress")
	save := fs.String("save", "", "write the refined model to this file")
	tracePath := fs.String("trace", "", "write per-iteration refinement trace events and pipeline spans (JSONL) to this file")
	redactTiming := fs.Bool("trace-redact-timing", false, "omit wall-clock fields and scheduling-dependent attributes from emitted spans, so identical runs yield byte-identical traces")
	spanSample := fs.Int("span-sample", 0, "emit a span for every Nth prefix of generate/evaluate sweeps (0 = no per-prefix spans)")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	checkpoint := fs.String("checkpoint", "", "write a crash-safe refinement checkpoint to this file (atomic rename; also on SIGINT/SIGTERM)")
	ckptEvery := fs.Int("checkpoint-every", model.DefaultCheckpointEvery, "iterations between checkpoints (with -checkpoint)")
	resume := fs.Bool("resume", false, "resume refinement from the -checkpoint file instead of starting fresh")
	workers := fs.Int("workers", pool.DefaultWorkers(), "worker-pool size for the training and validation evaluations (1 = sequential; same results at any count); refinement itself is sequential")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("refine: -in is required")
	}
	if *workers < 1 {
		return usagef("refine: -workers must be >= 1")
	}
	if *resume && *checkpoint == "" {
		return usagef("refine: -resume requires -checkpoint")
	}
	if *ckptEvery < 1 {
		return usagef("refine: -checkpoint-every must be >= 1")
	}
	if *debugAddr != "" {
		if err := startDebugServer(*debugAddr); err != nil {
			return err
		}
	}
	var sink *obs.TraceSink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		// Transient write errors on the trace file are retried with
		// bounded backoff instead of poisoning the sink; Close flushes
		// and closes the file through the RetryWriter.
		sink = obs.NewTraceSink(durable.NewRetryWriter(f, durable.Policy{}))
		defer sink.Close()
	}
	ctx, co := newCmdObs(ctx, "asmodel refine", args, *report, sink,
		obs.SpanOptions{RedactTiming: *redactTiming, PrefixSample: *spanSample})
	if co.report != nil {
		co.report.Seed = *seed
	}
	ds, rep, err := loadDataset(ctx, *in, iopts())
	if err != nil {
		return err
	}
	co.section("ingest", rep)
	var train, valid *dataset.Dataset
	if *byOrigin {
		train, valid = ds.SplitByOrigin(*trainFrac, *seed)
	} else {
		train, valid = ds.SplitByObsPoint(*trainFrac, *seed)
	}
	cfg := model.RefineConfig{
		Checkpoint: model.CheckpointConfig{Path: *checkpoint, Every: *ckptEvery},
	}
	if *verbose {
		cfg.Logf = func(format string, a ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	if sink != nil {
		cfg.Observer = func(ev model.RefineEvent) {
			sink.Emit(ev)
			if ev.Type == "checkpoint" {
				// Keep the on-disk trace consistent with the checkpoint
				// that just referenced this point in the run.
				sink.Sync()
			}
		}
	}
	var m *model.Model
	var res *model.RefineResult
	if *resume {
		cp, cerr := model.LoadCheckpointFile(*checkpoint)
		if cerr != nil {
			return cerr
		}
		m = cp.Model
		if cp.Source != "" && cp.Source != *checkpoint {
			fmt.Fprintf(os.Stderr, "asmodel: checkpoint %s unreadable; recovered from %s\n", *checkpoint, cp.Source)
		}
		fmt.Printf("resuming from %s at iteration %d\n", cp.Source, cp.Iteration)
		res, err = model.ResumeRefine(ctx, cp, train, cfg)
	} else {
		if m, err = model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds)); err != nil {
			return err
		}
		res, err = m.RefineContext(ctx, train, cfg)
	}
	if sink != nil && err == nil {
		if ferr := sink.Err(); ferr != nil {
			err = fmt.Errorf("refine: writing trace %s: %w", *tracePath, ferr)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("refinement: iterations=%d converged=%v quasi-routers=+%d filters=%d(-%d) med-rules=%d\n",
		res.Iterations, res.Converged, res.QuasiRoutersAdded, res.FiltersAdded, res.FiltersRemoved, res.MEDRules)
	co.section("refine", res)
	if n := len(res.Quarantined); n > 0 {
		recovered := 0
		for _, q := range res.Quarantined {
			if q.Recovered {
				recovered++
			}
		}
		fmt.Printf("quarantine: %d prefixes diverged, %d recovered under escalated budget\n", n, recovered)
	}
	if res.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d written to %s\n", res.Checkpoints, res.LastCheckpoint)
	}
	for _, part := range []struct {
		name string
		set  *dataset.Dataset
	}{{"training", train}, {"validation", valid}} {
		ev, err := m.EvaluateParallel(ctx, part.set, *workers)
		if err != nil {
			return err
		}
		s := ev.Summary
		fmt.Printf("%-10s %s  down-to-tie-break=%s\n", part.name, s, stats.Pct(s.DownToTieBreak(), s.Total))
		co.section("evaluation_"+part.name, map[string]interface{}{
			"summary":          s,
			"coverage":         ev.Coverage,
			"skipped_prefixes": ev.SkippedPrefixes,
			"diverged":         ev.Diverged,
			"divergences":      ev.Divergences,
		})
	}
	if *save != "" {
		_, sspan := obs.StartSpan(ctx, "save", obs.A("path", *save))
		f, err := os.Create(*save)
		if err != nil {
			sspan.End()
			return err
		}
		defer f.Close()
		if err := m.Save(f); err != nil {
			sspan.End()
			return err
		}
		sspan.End()
		fmt.Printf("model saved to %s\n", *save)
	}
	if err := co.finish(); err != nil {
		return err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return fmt.Errorf("refine: writing trace %s: %w", *tracePath, err)
		}
		fmt.Printf("trace: %d events written to %s\n", sink.Count(), *tracePath)
	}
	return nil
}

// loadOrRefine loads a saved model, or builds and refines one from the
// dataset when no model file is given.
func loadOrRefine(ctx context.Context, modelPath string, ds *dataset.Dataset) (*model.Model, error) {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return model.Load(f)
	}
	m, err := model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		return nil, err
	}
	if _, err := m.RefineContext(ctx, ds, model.RefineConfig{}); err != nil {
		return nil, err
	}
	return m, nil
}

func cmdPredict(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file")
	prefix := fs.String("prefix", "", "prefix name")
	asn := fs.Uint64("as", 0, "observation AS")
	modelPath := fs.String("model", "", "load a saved model instead of refining")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" && *modelPath == "" || *prefix == "" || *asn == 0 {
		return usagef("predict: -prefix, -as and one of -in/-model are required")
	}
	ctx, co := newCmdObs(ctx, "asmodel predict", args, *report, nil, obs.SpanOptions{})
	var ds *dataset.Dataset
	var err error
	if *in != "" {
		var rep *ingest.Report
		if ds, rep, err = loadDataset(ctx, *in, iopts()); err != nil {
			return err
		}
		co.section("ingest", rep)
	}
	m, err := loadOrRefine(ctx, *modelPath, ds)
	if err != nil {
		return err
	}
	_, pspan := obs.StartSpan(ctx, "predict", obs.A("prefix", *prefix), obs.A("as", *asn))
	paths, err := m.PredictPaths(*prefix, bgp.ASN(*asn))
	pspan.End()
	if err != nil {
		return err
	}
	co.section("predict", map[string]interface{}{"prefix": *prefix, "as": *asn, "paths": len(paths)})
	if len(paths) == 0 {
		fmt.Printf("AS %d selects no route for %s\n", *asn, *prefix)
		return co.finish()
	}
	for _, p := range paths {
		fmt.Println(p)
	}
	return co.finish()
}

func cmdWhatif(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file")
	prefix := fs.String("prefix", "", "prefix name")
	a := fs.Uint64("a", 0, "first AS of the removed link")
	b := fs.Uint64("b", 0, "second AS of the removed link")
	watch := fs.String("watch", "", "comma-separated ASes whose routes to compare")
	modelPath := fs.String("model", "", "load a saved model instead of refining")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" && *modelPath == "" || *prefix == "" || *a == 0 || *b == 0 {
		return usagef("whatif: -prefix, -a, -b and one of -in/-model are required")
	}
	ctx, co := newCmdObs(ctx, "asmodel whatif", args, *report, nil, obs.SpanOptions{})
	var ds *dataset.Dataset
	var err error
	if *in != "" {
		var rep *ingest.Report
		if ds, rep, err = loadDataset(ctx, *in, iopts()); err != nil {
			return err
		}
		co.section("ingest", rep)
	}
	watchASes, err := parseASList(*watch)
	if err != nil {
		return usagef("whatif: %v", err)
	}
	if len(watchASes) == 0 {
		if ds == nil {
			return usagef("whatif: -watch is required with -model")
		}
		watchASes = ds.ObsASes()
	}
	m, err := loadOrRefine(ctx, *modelPath, ds)
	if err != nil {
		return err
	}
	_, wspan := obs.StartSpan(ctx, "whatif", obs.A("prefix", *prefix), obs.A("a", *a), obs.A("b", *b))
	changes, err := m.WhatIfDepeer(*prefix, bgp.ASN(*a), bgp.ASN(*b), watchASes)
	wspan.End()
	if err != nil {
		return err
	}
	fmt.Printf("de-peering AS%d -- AS%d, prefix %s:\n", *a, *b, *prefix)
	anyChange := false
	changed := 0
	for _, c := range changes {
		if !c.Changed() {
			continue
		}
		anyChange = true
		changed++
		fmt.Printf("  AS %d: {%s} -> {%s}\n", c.AS, joinPaths(c.Before), joinPaths(c.After))
	}
	if !anyChange {
		fmt.Println("  no watched AS changes its routes")
	}
	co.section("whatif", map[string]interface{}{
		"prefix": *prefix, "a": *a, "b": *b, "watched": len(watchASes), "changed": changed,
	})
	return co.finish()
}

// joinPaths renders a path set as "a b c; d e f".
func joinPaths(paths []bgp.Path) string {
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, "; ")
}

func cmdExplain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file")
	prefix := fs.String("prefix", "", "prefix name")
	asn := fs.Uint64("as", 0, "AS whose decision to explain")
	modelPath := fs.String("model", "", "load a saved model instead of refining")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" && *modelPath == "" || *prefix == "" || *asn == 0 {
		return usagef("explain: -prefix, -as and one of -in/-model are required")
	}
	ctx, co := newCmdObs(ctx, "asmodel explain", args, *report, nil, obs.SpanOptions{})
	var ds *dataset.Dataset
	var err error
	if *in != "" {
		var rep *ingest.Report
		if ds, rep, err = loadDataset(ctx, *in, iopts()); err != nil {
			return err
		}
		co.section("ingest", rep)
	}
	m, err := loadOrRefine(ctx, *modelPath, ds)
	if err != nil {
		return err
	}
	_, espan := obs.StartSpan(ctx, "explain", obs.A("prefix", *prefix), obs.A("as", *asn))
	ex, err := m.ExplainPath(*prefix, bgp.ASN(*asn))
	espan.End()
	if err != nil {
		return err
	}
	fmt.Print(ex.String())
	return co.finish()
}

func cmdEvaluate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file to score against")
	modelPath := fs.String("model", "", "saved model file")
	workers := fs.Int("workers", pool.DefaultWorkers(), "worker-pool size for the evaluation (1 = sequential; same results at any count)")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" || *modelPath == "" {
		return usagef("evaluate: -in and -model are required")
	}
	if *workers < 1 {
		return usagef("evaluate: -workers must be >= 1")
	}
	ctx, co := newCmdObs(ctx, "asmodel evaluate", args, *report, nil, obs.SpanOptions{})
	ds, rep, err := loadDataset(ctx, *in, iopts())
	if err != nil {
		return err
	}
	co.section("ingest", rep)
	m, err := loadOrRefine(ctx, *modelPath, nil)
	if err != nil {
		return err
	}
	ev, err := m.EvaluateParallel(ctx, ds, *workers)
	if err != nil {
		return err
	}
	s := ev.Summary
	fmt.Printf("%s\n", s)
	fmt.Printf("down-to-tie-break=%s  skipped-prefixes=%d\n", stats.Pct(s.DownToTieBreak(), s.Total), ev.SkippedPrefixes)
	fmt.Printf("per-prefix RIB-Out coverage: >=50%%: %d/%d  >=90%%: %d/%d  100%%: %d/%d\n",
		ev.Coverage.At50, ev.Coverage.Prefixes, ev.Coverage.At90, ev.Coverage.Prefixes, ev.Coverage.At100, ev.Coverage.Prefixes)
	for _, d := range ev.Divergences {
		fmt.Printf("diverged: %s (%d messages, budget %d)\n", d.Prefix, d.Messages, d.Budget)
	}
	co.section("evaluation", map[string]interface{}{
		"summary":          s,
		"coverage":         ev.Coverage,
		"skipped_prefixes": ev.SkippedPrefixes,
		"diverged":         ev.Diverged,
		"divergences":      ev.Divergences,
	})
	return co.finish()
}
