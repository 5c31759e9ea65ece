// Command bench is the repository benchmark: one process runs one named
// workload of the pipeline (offline build, streaming refinement, or
// serving), prints every end-to-end metric with its unit, checks that the
// outputs are correct, and ends its standard output with a one-line JSON
// summary. With -trace 1 it prints the per-layer metrics instead.
//
// Usage, from cmd/bench (the benchmark is a module of its own):
//
//	go run . -workload build -seed 1 [-seconds 10] [-trace 1] [-out result.json]
//	go run . compare [-spec ../../BENCHMARK.json] setA/ setB/
//
// run.sh builds the command and runs it from the repository root with its
// scratch files kept under .bench_build. README.md describes the
// workloads and the metric catalog.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"asmodel/internal/obs"
)

const resultSchema = "asmodel-bench-v1"

// setupReps is how many times every run repeats its set-up; setup_s is
// the median, and the last set-up stays in place for the timed window.
const setupReps = 3

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool
	workDir  string
}

// workload is one traffic mix. prepare runs once, untimed; setup runs
// setupReps times (each replaces the previous one); window runs the timed
// part for about d; finish checks the outputs, records the validation
// score and returns the inputs the layer probes run on; close releases
// whatever the workload still holds.
type workload interface {
	params() map[string]any
	prepare(ctx context.Context) error
	setup(ctx context.Context) error
	window(ctx context.Context, d time.Duration) (*sample, error)
	finish(ctx context.Context, r *report) (*probeInputs, error)
	close()
}

// sample is what one timed window measured.
type sample struct {
	lat       []time.Duration // latency of every timed operation
	ops       int64           // operations, timed or not (per-op counts divide by it)
	work      float64         // work units completed, for throughput
	workTime  time.Duration   // time the work units took
	attempted int64
	failed    int64
	genLate   time.Duration // largest load-generator lateness (serve)
}

func (s *sample) add(o *sample) {
	s.lat = append(s.lat, o.lat...)
	s.ops += o.ops
	s.work += o.work
	s.workTime += o.workTime
	s.attempted += o.attempted
	s.failed += o.failed
	s.genLate = max(s.genLate, o.genLate)
}

// workloadSpec names a workload, builds it, and fixes which latency
// percentile its tail metric reports: the highest that stays steady from
// run to run. That is p90 of build's thirty-odd passes and p95 of the
// stream's hundreds of batches and of serve-swap's requests. serve-zipf
// spends about 8% of its window in garbage-collection marking, so its
// percentiles above p90 depend on how many collections a window happens
// to contain.
type workloadSpec struct {
	name  string
	tailQ float64
	make  func(o options, dir string) workload
}

var workloads = []workloadSpec{
	{"build", 0.90, newBuild},
	{"stream", 0.95, newStream},
	{"serve-zipf", 0.90, func(o options, dir string) workload { return newServe(o, dir, false) }},
	{"serve-swap", 0.95, func(o options, dir string) workload { return newServe(o, dir, true) }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report accumulates one run: correctness checks, operation counts and
// metrics. It is also the asmodel-bench-v1 result file.
type report struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Params    map[string]any    `json:"params"`
	Host      map[string]any    `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes carries context that is not a gated metric: sample counts,
	// the tail percentile, untimed preparation time.
	Notes map[string]any `json:"notes"`

	validFrac float64
	layer     map[string]float64 // per-layer values measured outside the probes
}

// check records a correctness check; a failed check fails the run and
// counts as a failed operation.
func (r *report) check(name string, err error) {
	r.Attempted++
	c := check{Name: name, OK: err == nil}
	if err != nil {
		r.Failed++
		r.Correct = false
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		o       options
		seconds float64
		trace   int
		out     string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "run on the tiny CI topology (functional check, not a measurement)")
	flag.StringVar(&o.workDir, "workdir", "", "directory for scratch inputs (default: the system temporary directory)")
	flag.StringVar(&out, "out", "", "also write the full "+resultSchema+" result to this file")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.window <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := findWorkload(o.workload); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}

	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if out != "" {
		rep.Host = hostStamp()
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one workload: set-up (repeated), the timed window, the
// correctness checks and, when tracing, the layer probes.
func run(ctx context.Context, o options) (*report, error) {
	spec, _ := findWorkload(o.workload)
	dir, err := os.MkdirTemp(o.workDir, "bench-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w := spec.make(o, dir)
	defer w.close()

	rep := &report{
		Schema: resultSchema, Workload: o.workload, Seed: o.seed,
		Seconds: o.window.Seconds(), Trace: o.trace, Params: w.params(),
		Correct: true, Metrics: make(map[string]metric),
		Notes: make(map[string]any), layer: make(map[string]float64),
	}

	t0 := time.Now()
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rep.Notes["prepare_s"] = time.Since(t0).Seconds()
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}

	var win *sample
	if o.trace {
		win, err = tracedWindow(ctx, w, o.window, rep)
	} else {
		win, err = w.window(ctx, o.window)
	}
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	rep.Attempted += win.attempted
	rep.Failed += win.failed

	in, err := w.finish(ctx, rep)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	rep.Notes["latency_samples"] = len(win.lat)
	rep.Notes["tail_percentile"] = spec.tailQ * 100

	if !o.trace {
		sorted := sortedCopy(win.lat)
		rep.Metrics["setup_s"] = metric{medianDuration(setups).Seconds(), "s"}
		rep.Metrics["latency_p50_ms"] = metric{ms(percentile(sorted, 0.50)), "ms"}
		rep.Metrics["latency_tail_ms"] = metric{ms(percentile(sorted, spec.tailQ)), "ms"}
		rep.Metrics["throughput_per_s"] = metric{win.work / win.workTime.Seconds(), "1/s"}
		rep.Metrics["valid_tiebreak_frac"] = metric{rep.validFrac, "frac"}
		rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return rep, nil
	}

	probes, err := runProbes(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range rep.layer {
		probes[k] = v
	}
	probes["serve.gen_late_ms_max"] = max(probes["serve.gen_late_ms_max"], ms(win.genLate))
	for _, lm := range layerMetrics {
		rep.Metrics[lm.name] = metric{probes[lm.name], lm.unit}
	}
	return rep, nil
}

// tracedWindow splits the window in two halves: the first untraced, the
// second with a span recorder in the context, so library spans and the
// harness's own layer spans are recorded. It reports the obs counter
// deltas of the traced half per operation, the self time of every span
// name (in the notes), and the tracing overhead.
func tracedWindow(ctx context.Context, w workload, d time.Duration, rep *report) (*sample, error) {
	plain, err := w.window(ctx, d/2)
	if err != nil {
		return nil, err
	}
	rec := obs.NewSpanRecorder(nil, "bench", obs.SpanOptions{})
	before := counterValues()
	traced, err := w.window(obs.ContextWithSpan(ctx, rec.Root()), d/2)
	if err != nil {
		return nil, err
	}
	after := counterValues()
	_ = rec.Finish() // no sink: nothing is emitted, so Finish cannot fail
	self := make(map[string]float64)
	spanSelfSeconds(rec.Root(), self)
	rep.Notes["span_self_s"] = self
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	hits, misses := delta("serve_cache_hits_total"), delta("serve_cache_misses_total")
	if hits+misses > 0 {
		rep.layer["serve.cache_hit_frac"] = hits / (hits + misses)
	}
	for layer, counter := range windowCounters {
		rep.layer[layer] = delta(counter) / float64(traced.ops)
	}
	p := percentile(sortedCopy(plain.lat), 0.5)
	t := percentile(sortedCopy(traced.lat), 0.5)
	rep.layer["trace.overhead_frac"] = float64(t-p) / float64(p)
	traced.add(plain)
	return traced, nil
}

// windowCounters maps per-layer counts to the obs counters whose delta
// per operation of the traced window they report.
var windowCounters = map[string]string{
	"sim.runs_per_op":             "sim_runs_total",
	"sim.messages_per_op":         "sim_messages_delivered_total",
	"sim.routes_installed_per_op": "sim_routes_installed_total",
	"sim.best_changes_per_op":     "sim_best_changes_total",
	"serve.propagations_per_op":   "serve_propagations_total",
	"serve.clones_per_op":         "serve_clones_total",
	"serve.coalesced_per_op":      "serve_coalesced_total",
}

// spanSelfSeconds adds every span's self time (its duration less the
// part its children cover) to self, by span name. Children that ran in
// parallel can cover more than their parent; the self time is then 0.
func spanSelfSeconds(s *obs.Span, self map[string]float64) {
	children := 0.0
	for _, c := range s.Children() {
		children += c.Seconds()
		spanSelfSeconds(c, self)
	}
	self[s.Name()] += max(s.Seconds()-children, 0)
}

// counterValues snapshots the plain counters of the default registry.
func counterValues() map[string]int64 {
	out := make(map[string]int64)
	for name, v := range obs.Default().Snapshot() {
		if n, ok := v.(int64); ok {
			out[name] = n
		}
	}
	return out
}

func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d (%d operations, %d failed)\n", rep.Workload, rep.Seed, rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Printf("  check %-24s %s\n", c.Name, verdict)
	}
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	summary, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Println(string(summary))
}

func writeReport(path string, rep *report) error {
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostStamp records where and with what the result was measured. The
// harness sets no runtime knobs (GOGC, GOMAXPROCS), so these describe the
// shipped program's defaults.
func hostStamp() map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"hostname":   host,
		"git":        gitDescribe(),
	}
}

// gitDescribe names the checked-out commit, or "unknown" outside a git
// checkout. The repository root is the working directory or, when run
// from cmd/bench, two levels up; it is recognised by BENCHMARK.json.
func gitDescribe() string {
	for _, root := range []string{".", filepath.Join("..", "..")} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
			return "unknown"
		}
		out, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty", "--tags").Output()
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func sortedCopy[T cmp.Ordered](s []T) []T {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// percentile is the nearest-rank q-quantile of sorted samples (zero when
// there are none).
func percentile[T cmp.Ordered](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianDuration(d []time.Duration) time.Duration {
	return percentile(sortedCopy(d), 0.5)
}
