// Command asmodeld serves route predictions from a refined AS-topology
// model: a long-lived daemon that loads a refinement checkpoint (or a
// saved model) into an immutable snapshot and answers
// (vantage, prefix) → predicted AS-path queries over HTTP/JSON, with
// validated hot-swap, load shedding and a graceful drain.
//
//	asmodeld -checkpoint ckpt.txt -addr :8480            # serve
//	asmodeld -model model.txt -addr :8480 -watch 5s      # auto-reload
//	asmodeld -checkpoint stream.state -watch 2s          # follow asmodel stream
//	asmodeld -loadgen -gen-seed 1 -out BENCH_serve.json  # benchmark
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

	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/model"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/serve"
	"asmodel/internal/topology"
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

		loadgen  = fs.Bool("loadgen", false, "run the load generator against an in-process daemon instead of serving")
		requests = fs.Int("requests", 2000, "loadgen: total request count")
		clients  = fs.Int("clients", 8, "loadgen: concurrent clients")
		seed     = fs.Int64("seed", 1, "loadgen: query-stream seed")
		reloads  = fs.Int("reloads", 4, "loadgen: hot-swaps fired during the run (needs -checkpoint/-model/-gen-seed)")
		genSeed  = fs.Int64("gen-seed", 0, "loadgen: serve a synthetic-Internet initial model with this seed instead of a file")
		outPath  = fs.String("out", "BENCH_serve.json", "loadgen: report output file")
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
	if !*loadgen && *checkpoint == "" && *modelPath == "" {
		return usageError{err: errors.New("one of -checkpoint or -model is required")}
	}
	if *loadgen && *checkpoint == "" && *modelPath == "" && *genSeed == 0 {
		*genSeed = 1
	}
	if *loadgen && *addr == ":8480" {
		// Benchmarks shouldn't squat the default serving port.
		*addr = "127.0.0.1:0"
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

	var runErr error
	if *loadgen {
		runErr = runLoadGen(ctx, srv, loadGenParams{
			genSeed: *genSeed, requests: *requests, clients: *clients,
			seed: *seed, reloads: *reloads, k: *k, out: *outPath,
		})
	} else {
		runErr = srv.Run(ctx)
	}

	if report != nil {
		if snap := srv.Snapshot(); snap != nil {
			report.AddSection("serve", map[string]any{
				"snapshot_seq":    snap.Seq,
				"source":          snap.Source,
				"origin":          snap.Origin,
				"iteration":       snap.Iteration,
				"prefixes":        snap.Model().Universe.Len(),
				"quasi_routers":   snap.Model().NumQuasiRouters(),
				"cached_prefixes": snap.CachedPrefixes(),
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

type loadGenParams struct {
	genSeed  int64
	requests int
	clients  int
	seed     int64
	reloads  int
	k        int
	out      string
}

// runLoadGen benchmarks the serving stack: an in-process daemon on a
// loopback port under a seeded query fleet, writing the
// asmodel-bench-serve-v1 report gated by make bench-check.
func runLoadGen(ctx context.Context, srv *serve.Server, p loadGenParams) error {
	var m *model.Model
	if p.genSeed != 0 {
		fmt.Fprintf(os.Stderr, "asmodeld: generating synthetic Internet (seed=%d)...\n", p.genSeed)
		cfg := gen.DefaultConfig()
		cfg.Seed = p.genSeed
		in, err := gen.Generate(cfg)
		if err != nil {
			return err
		}
		ds, err := in.RunAllParallel(ctx, pool.DefaultWorkers())
		if err != nil {
			return err
		}
		ds.Normalize()
		m, err = model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
		if err != nil {
			return err
		}
	}
	start := time.Now()
	rep, err := serve.RunLoadGen(ctx, srv, m, serve.LoadGenConfig{
		Requests: p.requests, Clients: p.clients, Seed: p.seed, Reloads: reloadsFor(srv, p), K: p.k,
	})
	if err != nil {
		return err
	}
	if err := serve.WriteBenchReport(p.out, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"asmodeld: loadgen done in %v: %d ok, %d shed, %d errors, p50=%.2fms p99=%.2fms (%.0f req/s), report %s\n",
		time.Since(start).Round(time.Millisecond), rep.OK, rep.Shed, rep.Errors,
		float64(rep.LatencyP50NS)/1e6, float64(rep.LatencyP99NS)/1e6, rep.RequestsPerS, p.out)
	if rep.Errors > 0 {
		return fmt.Errorf("loadgen saw %d errored requests", rep.Errors)
	}
	return nil
}

// reloadsFor disables mid-run reloads when serving an in-memory model:
// there is no source file to re-POST.
func reloadsFor(srv *serve.Server, p loadGenParams) int {
	if p.genSeed != 0 {
		return 0
	}
	return p.reloads
}
