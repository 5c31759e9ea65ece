// Command asmodeld serves route predictions from a refined AS-topology
// model: a long-lived daemon that loads a refinement checkpoint (or a
// saved model) into an immutable snapshot and answers
// (vantage, prefix) → predicted AS-path queries over HTTP/JSON, with
// validated hot-swap, load shedding and a graceful drain.
//
//	asmodeld -checkpoint ckpt.txt -addr :8480            # serve
//	asmodeld -model model.txt -addr :8480 -watch 5s      # auto-reload
//	asmodeld -checkpoint stream.state -watch 2s          # follow asmodel stream
//
// -checkpoint also accepts an `asmodel stream` state file
// (asmodel-stream-cursor-v1): the embedded checkpoint is served, and
// with -watch the daemon hot-swaps after each committed batch,
// debounced by -watch-debounce so rapid batches coalesce.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM drained), 1 runtime
// failure, 2 usage error, 3 drain deadline exceeded (accepted requests
// were cut off).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asmodel/internal/obs"
	"asmodel/internal/serve"
)

const (
	exitOK          = 0
	exitRuntime     = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// usageError marks an error as the caller's fault (bad flags) so run
// maps it to exitUsage; quiet suppresses re-printing when the flag
// package already reported it.
type usageError struct {
	err   error
	quiet bool
}

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:]))
}

// debugServer holds the optional -debug-addr endpoint, as a package
// variable so tests can reach its resolved address.
var debugServer *obs.Server

func run(ctx context.Context, args []string) int {
	err := realMain(ctx, args)
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, flag.ErrHelp):
		return exitOK
	default:
		var uerr usageError
		if errors.As(err, &uerr) {
			if !uerr.quiet {
				fmt.Fprintln(os.Stderr, "asmodeld:", err)
			}
			return exitUsage
		}
		var derr *serve.DrainError
		if errors.As(err, &derr) {
			fmt.Fprintln(os.Stderr, "asmodeld:", err)
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, "asmodeld:", err)
		return exitRuntime
	}
}

func realMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("asmodeld", flag.ContinueOnError)
	var (
		checkpoint   = fs.String("checkpoint", "", "refinement checkpoint to serve (asmodel-checkpoint-v1; .bak fallback applies)")
		modelPath    = fs.String("model", "", "saved model to serve instead of a checkpoint (asmodel save format)")
		addr         = fs.String("addr", ":8480", "HTTP listen address (\":0\" picks a free port)")
		watch        = fs.Duration("watch", 0, "poll the source file and hot-swap on change (0 disables)")
		watchDeb     = fs.Duration("watch-debounce", time.Second, "hold a detected change until the file is quiet this long, coalescing rapid commits into one swap (0 swaps immediately)")
		probes       = fs.Int("probes", serve.DefaultProbes, "validation probes per candidate snapshot (-1 disables)")
		maxInflight  = fs.Int("max-inflight", serve.DefaultMaxInflight, "in-flight request bound before shedding with 429")
		timeout      = fs.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline (504 on overrun)")
		drainTimeout = fs.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful drain deadline on SIGINT/SIGTERM")
		k            = fs.Int("k", serve.DefaultAlternates, "default top-k alternates per prediction (?k= overrides)")
		debugAddr    = fs.String("debug-addr", "", "separate obs debug endpoint (the main listener already serves /metrics)")
		reportPath   = fs.String("report", "", "write a schema-versioned JSON run report on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return usageError{err: err, quiet: true}
	}
	if fs.NArg() > 0 {
		return usageError{err: fmt.Errorf("unexpected arguments: %v", fs.Args())}
	}
	if *checkpoint == "" && *modelPath == "" {
		return usageError{err: errors.New("one of -checkpoint or -model is required")}
	}
	if *debugAddr != "" && debugServer == nil {
		srv, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			return err
		}
		debugServer = srv
		fmt.Fprintf(os.Stderr, "asmodeld: debug endpoints on http://%s/metrics\n", srv.Addr)
	}

	var report *obs.RunReport
	if *reportPath != "" {
		report = obs.NewRunReport("asmodeld", args)
	}

	cfg := serve.Config{
		CheckpointPath: *checkpoint,
		ModelPath:      *modelPath,
		Addr:           *addr,
		Probes:         *probes,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		WatchInterval:  *watch,
		WatchDebounce:  *watchDeb,
		MaxAlternates:  *k,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "asmodeld: "+format+"\n", a...)
		},
	}
	srv := serve.New(cfg)

	runErr := srv.Run(ctx)

	if report != nil {
		if snap := srv.Snapshot(); snap != nil {
			report.AddSection("serve", map[string]any{
				"snapshot_seq":  snap.Seq,
				"source":        snap.Source,
				"origin":        snap.Origin,
				"iteration":     snap.Iteration,
				"prefixes":      snap.Model().Universe.Len(),
				"quasi_routers": snap.Model().NumQuasiRouters(),
			})
		}
		report.Finish(nil, obs.Default())
		if err := report.WriteFile(*reportPath); err != nil {
			if runErr == nil {
				runErr = fmt.Errorf("writing run report %s: %w", *reportPath, err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "asmodeld: run report written to %s\n", *reportPath)
		}
	}
	return runErr
}
