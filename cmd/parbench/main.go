// Command parbench measures the parallel per-prefix machinery against its
// sequential baselines and writes machine-readable reports
// (BENCH_parallel.json and BENCH_gen.json via `make bench-json`).
//
// The eval section times Model.EvaluateParallel over a refined model for
// every worker count and checks the result is identical
// (reflect.DeepEqual) to the sequential evaluation; the refine section
// times a full refinement per worker count (the workers run its verify
// sweep) and checks the serialized model bytes, the RefineResult and the
// redacted trace stream (events + spans) are byte-identical to the
// sequential refinement. The gen section
// times gen.Internet.RunAllParallel — the ground-truth generation that
// dominates suite setup — on a freshly generated Internet per repetition
// and checks the dataset bytes and the Weird/QuirksReverted bookkeeping
// match the sequential RunAll. All reports record GOMAXPROCS and NumCPU
// alongside every timing: per-prefix simulation shares nothing, so the
// speedup tracks the CPU count — on a single-CPU host it stays near 1x
// and the run only demonstrates determinism plus pool overhead.
//
// Usage:
//
//	parbench -out BENCH_parallel.json -gen-out BENCH_gen.json -seed 1 -reps 3 -workers 1,2,4,8
//	parbench -mode gen -reps 1            # generation smoke only (make bench-gen)
//	parbench -mode refine -reps 1         # refinement smoke only (make bench-refine)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/experiments"
	"asmodel/internal/gen"
	"asmodel/internal/model"
	"asmodel/internal/obs"
	"asmodel/internal/topology"
)

// Schema identifiers for the two report files; obsreport check keys its
// baseline rules on these.
const (
	evalSchema = "asmodel-bench-parallel-v1"
	genSchema  = "asmodel-bench-gen-v1"
)

type workerRow struct {
	Workers   int     `json:"workers"`
	NsOp      int64   `json:"ns_op"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
	// BusySeconds is the per-worker busy time summed over every worker
	// and every timed repetition (from the obs worker histograms);
	// Utilization divides it by reps × wall × workers, so 1.0 means no
	// worker ever waited on the clone build or the shared cursor.
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

type report struct {
	Schema       string      `json:"schema"`
	Seed         int64       `json:"seed"`
	Reps         int         `json:"reps"`
	GoMaxProcs   int         `json:"gomaxprocs"`
	NumCPU       int         `json:"num_cpu"`
	GoVersion    string      `json:"go_version"`
	GOOS         string      `json:"goos"`
	GOARCH       string      `json:"goarch"`
	Hostname     string      `json:"hostname,omitempty"`
	Prefixes     int         `json:"prefixes"`
	Paths        int         `json:"paths"`
	QuasiRouters int         `json:"quasi_routers"`
	Note         string      `json:"note"`
	EvalSeqNsOp  int64       `json:"evaluate_sequential_ns_op"`
	Evaluate     []workerRow `json:"evaluate_parallel"`
	RefSeqNsOp   int64       `json:"refine_sequential_ns_op"`
	Refine       []workerRow `json:"refine_parallel"`
}

func hostname() string {
	h, _ := os.Hostname()
	return h
}

func main() {
	out := flag.String("out", "BENCH_parallel.json", "evaluate/refine report file")
	genOut := flag.String("gen-out", "BENCH_gen.json", "ground-truth generation report file")
	seed := flag.Int64("seed", 1, "generator and split seed")
	reps := flag.Int("reps", 3, "timed repetitions per configuration (minimum is reported)")
	workersList := flag.String("workers", "1,2,4,8", "comma-separated worker counts to measure")
	mode := flag.String("mode", "all", "which sections to run: all, eval (evaluate+refine), refine (refinement only), or gen (ground-truth generation)")
	reportPath := flag.String("report", "", "write a schema-versioned JSON run report to this file")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	flag.Parse()
	if *mode != "all" && *mode != "eval" && *mode != "refine" && *mode != "gen" {
		fmt.Fprintln(os.Stderr, "parbench: -mode must be all, eval, refine or gen")
		os.Exit(2)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "parbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/metrics (also /metrics.json, /debug/vars, /debug/pprof)\n", srv.Addr)
	}
	if err := run(*out, *genOut, *mode, *seed, *reps, *workersList, *reportPath); err != nil {
		fmt.Fprintln(os.Stderr, "parbench:", err)
		os.Exit(1)
	}
}

// minNs reports the minimum and the summed wall time of reps runs of f.
func minNs(reps int, f func() error) (best, total int64, err error) {
	best = -1
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		ns := time.Since(start).Nanoseconds()
		total += ns
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best, total, nil
}

// utilization turns a busy-seconds histogram delta into a 0..1 pool
// utilization: busy / (wall × workers).
func utilization(busy float64, totalNs int64, workers int) float64 {
	if totalNs <= 0 || workers <= 0 {
		return 0
	}
	return busy / (float64(totalNs) / 1e9 * float64(workers))
}

func run(out, genOut, mode string, seed int64, reps int, workersList, reportPath string) error {
	var counts []int
	for _, part := range strings.Split(workersList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -workers entry %q", part)
		}
		counts = append(counts, n)
	}
	var runRep *obs.RunReport
	var rec *obs.SpanRecorder
	root := (*obs.Span)(nil)
	if reportPath != "" {
		runRep = obs.NewRunReport("parbench", os.Args[1:])
		runRep.Seed = seed
		rec = obs.NewSpanRecorder(nil, "parbench", obs.SpanOptions{})
		root = rec.Root()
	}
	if mode == "all" || mode == "gen" {
		sp := root.StartChild("gen")
		grep, err := runGen(genOut, seed, reps, counts)
		sp.End()
		if err != nil {
			return err
		}
		if runRep != nil {
			runRep.AddSection("gen", grep)
		}
	}
	if mode == "all" || mode == "eval" || mode == "refine" {
		sp := root.StartChild("eval")
		erep, err := runEval(out, seed, reps, counts, mode)
		sp.End()
		if err != nil {
			return err
		}
		if runRep != nil {
			runRep.AddSection("eval", erep)
		}
	}
	if runRep != nil {
		if err := rec.Finish(); err != nil {
			return err
		}
		runRep.Finish(rec, obs.Default())
		if err := runRep.WriteFile(reportPath); err != nil {
			return fmt.Errorf("writing run report %s: %w", reportPath, err)
		}
		fmt.Fprintf(os.Stderr, "parbench: run report written to %s\n", reportPath)
	}
	return nil
}

// genReport is the BENCH_gen.json shape: sequential RunAll vs
// RunAllParallel on a freshly generated Internet per repetition.
type genReport struct {
	Schema         string      `json:"schema"`
	Seed           int64       `json:"seed"`
	Reps           int         `json:"reps"`
	GoMaxProcs     int         `json:"gomaxprocs"`
	NumCPU         int         `json:"num_cpu"`
	GoVersion      string      `json:"go_version"`
	GOOS           string      `json:"goos"`
	GOARCH         string      `json:"goarch"`
	Hostname       string      `json:"hostname,omitempty"`
	Prefixes       int         `json:"prefixes"`
	Records        int         `json:"records"`
	QuirksReverted int         `json:"quirks_reverted"`
	Note           string      `json:"note"`
	SeqNsOp        int64       `json:"run_all_sequential_ns_op"`
	Parallel       []workerRow `json:"run_all_parallel"`
}

// runGen benches ground-truth generation. Every repetition regenerates
// the Internet from the seed: RunAll mutates the generator's quirk
// bookkeeping (diverging weird policies are reverted on first contact),
// so re-running on a used Internet would not time the same work.
func runGen(out string, seed int64, reps int, counts []int) (*genReport, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	busyHist := obs.GetHistogram("gen_worker_busy_seconds", "", nil)

	timeRunAll := func(workers int) (int64, int64, *dataset.Dataset, *gen.Internet, error) {
		best, total := int64(-1), int64(0)
		var ds *dataset.Dataset
		var in *gen.Internet
		for i := 0; i < reps; i++ {
			fresh, err := gen.Generate(cfg)
			if err != nil {
				return 0, 0, nil, nil, err
			}
			start := time.Now()
			d, err := fresh.RunAllParallel(context.Background(), workers)
			if err != nil {
				return 0, 0, nil, nil, err
			}
			ns := time.Since(start).Nanoseconds()
			total += ns
			if best < 0 || ns < best {
				best = ns
			}
			ds, in = d, fresh
		}
		return best, total, ds, in, nil
	}

	fmt.Fprintf(os.Stderr, "parbench: ground-truth generation (seed=%d)...\n", seed)
	seqNs, _, seqDS, seqIn, err := timeRunAll(1)
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := seqDS.Write(&want); err != nil {
		return nil, err
	}
	rep := &genReport{
		Schema: genSchema,
		Seed:   seed, Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
		Hostname:       hostname(),
		Prefixes:       seqIn.NumPrefixes(),
		Records:        seqDS.Len(),
		QuirksReverted: seqIn.QuirksReverted,
		Note: "speedup is bounded by num_cpu: per-prefix ground-truth simulation shares " +
			"nothing, so on a single-CPU host parallel timings measure clone + pool " +
			"overhead while the identical flags still verify the deterministic merge",
		SeqNsOp: seqNs,
	}
	fmt.Fprintf(os.Stderr, "parbench: gen sequential %.2fms (%d records)\n", float64(seqNs)/1e6, seqDS.Len())
	for _, w := range counts {
		if w == 1 {
			continue // workers=1 is the sequential path already timed
		}
		busy0 := busyHist.Sum()
		ns, totalNs, ds, in, err := timeRunAll(w)
		if err != nil {
			return nil, err
		}
		busy := busyHist.Sum() - busy0
		var got bytes.Buffer
		if err := ds.Write(&got); err != nil {
			return nil, err
		}
		identical := bytes.Equal(got.Bytes(), want.Bytes()) &&
			in.QuirksReverted == seqIn.QuirksReverted &&
			len(in.Weird) == len(seqIn.Weird)
		rep.Parallel = append(rep.Parallel, workerRow{
			Workers: w, NsOp: ns,
			Speedup:     float64(seqNs) / float64(ns),
			Identical:   identical,
			BusySeconds: busy,
			Utilization: utilization(busy, totalNs, w),
		})
		fmt.Fprintf(os.Stderr, "parbench: gen workers=%d %.2fms (%.2fx, util %.2f)\n",
			w, float64(ns)/1e6, float64(seqNs)/float64(ns), utilization(busy, totalNs, w))
	}
	for _, r := range rep.Parallel {
		if !r.Identical {
			return nil, fmt.Errorf("gen workers=%d produced a dataset that differs from sequential", r.Workers)
		}
	}
	if err := writeJSON(out, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "parbench: report written to %s\n", out)
	return rep, nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// refinedRun is one fully observed refinement: the model, the result and
// the redacted trace stream (events then spans) — the three outputs that
// must be byte-identical at any worker count.
type refinedRun struct {
	m     *model.Model
	res   *model.RefineResult
	trace []byte
}

func runEval(out string, seed int64, reps int, counts []int, mode string) (*report, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	busyHist := obs.GetHistogram("eval_worker_busy_seconds", "", nil)
	fmt.Fprintf(os.Stderr, "parbench: generating suite (seed=%d)...\n", seed)
	s, err := experiments.NewSuite(cfg)
	if err != nil {
		return nil, err
	}
	train, valid := s.Data.SplitByObsPoint(0.5, seed)
	g := topology.FromDataset(s.Data)
	u := dataset.NewUniverse(s.Data)

	// Every refinement — the sequential reference included — runs with a
	// redacted span recorder and a trace-event observer attached, so the
	// timings are uniform and the identity check can cover the trace
	// stream, not just the model bytes.
	buildRefined := func(workers int) (*refinedRun, error) {
		m, err := model.NewInitial(g, u)
		if err != nil {
			return nil, err
		}
		var trace bytes.Buffer
		sink := obs.NewTraceSink(&trace)
		rec := obs.NewSpanRecorder(sink, "parbench refine", obs.SpanOptions{RedactTiming: true})
		rcfg := model.RefineConfig{Workers: workers, Observer: func(ev model.RefineEvent) {
			_ = sink.Emit(ev)
		}}
		res, err := m.RefineContext(obs.ContextWithSpan(context.Background(), rec.Root()), train, rcfg)
		if err != nil {
			return nil, err
		}
		if err := rec.Finish(); err != nil {
			return nil, err
		}
		if err := sink.Flush(); err != nil {
			return nil, err
		}
		return &refinedRun{m: m, res: res, trace: trace.Bytes()}, nil
	}

	fmt.Fprintf(os.Stderr, "parbench: refining baseline model...\n")
	ref, err := buildRefined(0)
	if err != nil {
		return nil, err
	}
	m := ref.m
	rep := &report{
		Schema: evalSchema,
		Seed:   seed, Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
		Hostname: hostname(),
		Prefixes: len(s.Data.Prefixes()),
		Note: "speedup is bounded by num_cpu: per-prefix simulation shares nothing, " +
			"so on a single-CPU host parallel timings measure pool overhead while " +
			"the identical flags still verify the deterministic merge",
		QuasiRouters: m.NumQuasiRouters(),
	}

	// Evaluation: sequential baseline, then each worker count (skipped in
	// refine-only mode).
	if mode != "refine" {
		want, err := m.Evaluate(valid)
		if err != nil {
			return nil, err
		}
		rep.Paths = want.Summary.Total
		rep.EvalSeqNsOp, _, err = minNs(reps, func() error {
			_, err := m.Evaluate(valid)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, w := range counts {
			var got *model.Evaluation
			busy0 := busyHist.Sum()
			ns, totalNs, err := minNs(reps, func() error {
				var err error
				got, err = m.EvaluateParallel(context.Background(), valid, w)
				return err
			})
			if err != nil {
				return nil, err
			}
			busy := busyHist.Sum() - busy0
			rep.Evaluate = append(rep.Evaluate, workerRow{
				Workers: w, NsOp: ns,
				Speedup:     float64(rep.EvalSeqNsOp) / float64(ns),
				Identical:   reflect.DeepEqual(got, want),
				BusySeconds: busy,
				Utilization: utilization(busy, totalNs, w),
			})
			fmt.Fprintf(os.Stderr, "parbench: evaluate workers=%d %.2fms (%.2fx, util %.2f)\n",
				w, float64(ns)/1e6, float64(rep.EvalSeqNsOp)/float64(ns), utilization(busy, totalNs, w))
		}
	}

	// Refinement: the sequential run vs each worker count, compared by
	// model bytes, RefineResult and the redacted trace stream. Only the
	// verify sweep runs on the workers, so busy time is the verify-sweep
	// workers' (eval_worker_busy_seconds) and the sequential refine
	// iterations are the idle remainder.
	var wantBytes bytes.Buffer
	if err := m.Save(&wantBytes); err != nil {
		return nil, err
	}
	rep.RefSeqNsOp, _, err = minNs(reps, func() error {
		_, err := buildRefined(0)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, w := range counts {
		var got *refinedRun
		busy0 := busyHist.Sum()
		ns, totalNs, err := minNs(reps, func() error {
			var err error
			got, err = buildRefined(w)
			return err
		})
		if err != nil {
			return nil, err
		}
		busy := busyHist.Sum() - busy0
		var gotBytes bytes.Buffer
		if err := got.m.Save(&gotBytes); err != nil {
			return nil, err
		}
		identical := bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) &&
			reflect.DeepEqual(got.res, ref.res) &&
			bytes.Equal(got.trace, ref.trace)
		rep.Refine = append(rep.Refine, workerRow{
			Workers: w, NsOp: ns,
			Speedup:     float64(rep.RefSeqNsOp) / float64(ns),
			Identical:   identical,
			BusySeconds: busy,
			Utilization: utilization(busy, totalNs, w),
		})
		fmt.Fprintf(os.Stderr, "parbench: refine workers=%d %.2fms (%.2fx, util %.2f)\n",
			w, float64(ns)/1e6, float64(rep.RefSeqNsOp)/float64(ns), utilization(busy, totalNs, w))
	}

	for _, r := range append(append([]workerRow{}, rep.Evaluate...), rep.Refine...) {
		if !r.Identical {
			return nil, fmt.Errorf("workers=%d produced a result that differs from sequential", r.Workers)
		}
	}

	if err := writeJSON(out, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "parbench: report written to %s\n", out)
	return rep, nil
}
