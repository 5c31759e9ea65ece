package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/durable"
	"asmodel/internal/ingest"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
	"asmodel/internal/stream"
)

// cmdStream runs the long-lived streaming refinement loop: tail an MRT
// update source, cut deterministic record-count batches, delta-refine
// only the prefixes each batch changed, and commit cursor+checkpoint
// atomically so a crash at any point resumes exactly-once from the
// last committed batch.
func cmdStream(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	in := fs.String("in", "", "MRT update file to stream (grows in -follow mode)")
	dir := fs.String("dir", "", "directory of MRT update files to stream in lexical order (mutually exclusive with -in)")
	glob := fs.String("glob", "*.mrt", "filename pattern for -dir")
	state := fs.String("state", "", "stream state file: cursor + embedded checkpoint, committed atomically per batch; resumes if it exists")
	bootstrap := fs.String("bootstrap", "", "dataset file to build the initial model from (prefix names must match the stream's)")
	bootstrapMRT := fs.String("bootstrap-mrt", "", "MRT update file to replay into the bootstrap dataset instead of -bootstrap")
	batch := fs.Int("batch", stream.DefaultBatchRecords, "records per batch (cursor-validated: a resume with a different value is refused)")
	minAge := fs.Int64("min-age", 0, "stable-route filter for batch snapshots, seconds (cursor-validated; 0 disables)")
	follow := fs.Bool("follow", false, "keep tailing the source for new records instead of stopping at EOF")
	poll := fs.Duration("poll", stream.DefaultPoll, "poll interval for -follow")
	maxBatches := fs.Int64("max-batches", 0, "stop after this many committed batches (0 = unlimited)")
	refineIters := fs.Int("refine-iters", 0, "per-batch refinement iteration budget (0 = automatic)")
	stall := fs.Duration("stall-timeout", 0, "warn and count a stall when no record arrives for this long (0 disables)")
	killAfter := fs.Int64("kill-after-batch", 0, "crash smoke: SIGKILL this process right after committing batch N (0 disables)")
	verbose := fs.Bool("v", false, "log per-batch progress")
	tracePath := fs.String("trace", "", "write stream events (JSONL) to this file")
	redactTiming := fs.Bool("trace-redact-timing", false, "emit only deterministic post-commit batch events, so any crash/restart schedule yields a byte-identical trace")
	report := fs.String("report", "", "write a schema-versioned JSON run report to this file")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	iopts := ingestFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case *in == "" && *dir == "":
		return usagef("stream: one of -in or -dir is required")
	case *in != "" && *dir != "":
		return usagef("stream: -in and -dir are mutually exclusive")
	case *state == "":
		return usagef("stream: -state is required")
	case *bootstrap != "" && *bootstrapMRT != "":
		return usagef("stream: -bootstrap and -bootstrap-mrt are mutually exclusive")
	case *batch < 1:
		return usagef("stream: -batch must be >= 1")
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
		sink = obs.NewTraceSink(durable.NewRetryWriter(f, durable.Policy{}))
		defer sink.Close()
	}
	ctx, co := newCmdObs(ctx, "asmodel stream", args, *report, sink,
		obs.SpanOptions{RedactTiming: *redactTiming})

	cfg := stream.Config{
		StatePath:     *state,
		BatchRecords:  *batch,
		MinAge:        *minAge,
		MaxIterations: *refineIters,
		MaxBatches:    *maxBatches,
		Ingest:        iopts(),
		StallTimeout:  *stall,
	}
	if *in != "" {
		cfg.Source = stream.NewFileSource(*in, *follow, *poll)
	} else {
		cfg.Source = stream.NewDirSource(*dir, *glob, *follow, *poll)
	}
	defer cfg.Source.Close()

	switch {
	case *bootstrap != "":
		ds, rep, err := loadDataset(ctx, *bootstrap, iopts())
		if err != nil {
			return err
		}
		co.section("bootstrap_ingest", rep)
		cfg.Bootstrap = ds
	case *bootstrapMRT != "":
		ds, st, rep, err := replayBootstrap(ctx, *bootstrapMRT, *minAge, iopts())
		if err != nil {
			return err
		}
		co.section("bootstrap_replay", st)
		if rep != nil && rep.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "asmodel: %s\n", rep)
		}
		cfg.Bootstrap = ds
	}

	if *verbose {
		cfg.Logf = func(format string, a ...interface{}) {
			fmt.Fprintf(os.Stderr, "asmodel: "+format+"\n", a...)
		}
	}
	if sink != nil {
		cfg.Observer = func(ev stream.Event) {
			// Recovery and stall events describe this process's lifecycle,
			// not stream content; a redacted trace keeps only the
			// deterministic post-commit batch events (see stream.Event).
			if *redactTiming && ev.Type != "batch" {
				return
			}
			sink.Emit(ev)
			if ev.Type == "batch" {
				// Keep the on-disk trace consistent with the state commit
				// the event describes.
				sink.Sync()
			}
		}
	}
	if *killAfter > 0 {
		inner := cfg.OnCommit
		cfg.OnCommit = func(st *stream.State) {
			if inner != nil {
				inner(st)
			}
			if st.Cursor.Batches == *killAfter {
				// Crash smoke: die mid-run with no cleanup, exactly as a
				// power cut would, right after a commit. The restarted run
				// must resume byte-identically.
				if sink != nil {
					sink.Sync()
				}
				fmt.Fprintf(os.Stderr, "asmodel: -kill-after-batch %d: killing self\n", *killAfter)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	start := time.Now()
	res, err := stream.New(cfg).Run(ctx)
	if sink != nil && err == nil {
		if ferr := sink.Err(); ferr != nil {
			err = fmt.Errorf("stream: writing trace %s: %w", *tracePath, ferr)
		}
	}
	if err != nil {
		return err
	}
	resumed := ""
	if res.Recovered {
		resumed = " (resumed)"
	}
	fmt.Printf("stream%s: batches=%d records=%d last-ts=%d changed=%d refined=%d iterations=%d quarantined=%d in %v\n",
		resumed, res.Batches, res.Records, res.LastTS,
		res.Totals.ChangedPrefixes, res.Totals.RefinedPrefixes, res.Totals.Iterations,
		res.Totals.QuarantinedBatch,
		time.Since(start).Round(time.Millisecond))
	if res.SkipReport != nil && res.SkipReport.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "asmodel: %s\n", res.SkipReport)
	}
	co.section("stream", res)
	return co.finish()
}

// replayBootstrap replays an MRT update file into the bootstrap
// dataset, so the initial model's universe uses the same prefix naming
// the streamed batches will.
func replayBootstrap(ctx context.Context, path string, minAge int64, opts ingest.Options) (*dataset.Dataset, *mrt.ReplayStats, *ingest.Report, error) {
	_, span := obs.StartSpan(ctx, "ingest", obs.A("source", path))
	defer span.End()
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	ds, st, rep, err := mrt.UpdatesToDatasetOpts(f, 0, minAge, opts)
	if rep != nil {
		rep.Source = path
	}
	if err != nil {
		return nil, st, rep, err
	}
	span.Set(obs.A("records", st.Records), obs.A("skipped", rep.Skipped))
	return ds.Normalize(), st, rep, nil
}
