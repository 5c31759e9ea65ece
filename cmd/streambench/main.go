// Command streambench measures the streaming incremental-refinement
// loop and proves its crash-recovery contract, writing the
// schema-versioned BENCH_stream.json gated by make bench-check.
//
// The benchmark emits a deterministic synthetic MRT update stream,
// bootstraps a model from it, and times a clean oneshot run
// (per-batch commit latency percentiles, records/s). It then re-runs
// the same stream but stops half way — as a crash after a commit
// would — resumes from the committed cursor, times the recovery
// replay, and checks the resumed run's final state file is
// byte-identical to the clean run's: the "identical" field is the
// report's hard determinism gate.
//
// Usage:
//
//	streambench -out BENCH_stream.json            # benchmark (make bench-stream)
//	streambench -emit updates.mrt -seed 7         # just emit the update stream (CI crash smoke)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/durable"
	"asmodel/internal/gen"
	"asmodel/internal/mrt"
	"asmodel/internal/pool"
	"asmodel/internal/stream"
)

const benchSchema = "asmodel-bench-stream-v1"

// report is the BENCH_stream.json payload; obsreport check keys its
// baseline rules (baselines/BENCH_stream.baseline.json) on the schema.
type report struct {
	Schema     string `json:"schema"`
	Seed       int64  `json:"seed"`
	Batch      int    `json:"batch"`
	Workers    int    `json:"workers"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Hostname   string `json:"hostname,omitempty"`
	Note       string `json:"note"`

	// Clean-run accounting (from the committed cursor).
	Records            int64 `json:"records"`
	Batches            int64 `json:"batches"`
	ChangedPrefixes    int   `json:"changed_prefixes"`
	RefinedPrefixes    int   `json:"refined_prefixes"`
	Iterations         int   `json:"iterations"`
	SkippedRecords     int   `json:"skipped_records"`
	QuarantinedBatches int   `json:"quarantined_batches"`

	// Per-batch commit-to-commit latency over the clean run, nanoseconds.
	BatchP50NS int64 `json:"batch_p50_ns"`
	BatchP90NS int64 `json:"batch_p90_ns"`
	BatchP99NS int64 `json:"batch_p99_ns"`
	BatchMaxNS int64 `json:"batch_max_ns"`

	ElapsedNS   int64   `json:"elapsed_ns"`
	RecordsPerS float64 `json:"records_per_s"`

	// Crash/resume: the second run is cut after half the batches, then
	// resumed. RecoveryNS times the cursor-replay alone (run start to the
	// recovery event); Identical is the byte-compare of the resumed run's
	// final state file against the clean run's.
	ResumedAtBatch int64 `json:"resumed_at_batch"`
	RecoveryNS     int64 `json:"recovery_ns"`
	Identical      bool  `json:"identical"`
}

// genUpdates generates the synthetic internet and returns it as a
// normalized dataset — the ground truth both the update stream and the
// bootstrap model derive from.
func genUpdates(ctx context.Context, seed int64) (*dataset.Dataset, error) {
	in, err := gen.Generate(gen.Config{
		Seed:             seed,
		NumTier1:         3,
		NumTier2:         6,
		NumTier3:         10,
		NumStub:          14,
		RoutersTier1:     2,
		RoutersTier2:     2,
		RoutersTier3:     1,
		MultiHomeProb:    0.5,
		Tier2PeerProb:    0.2,
		Tier3PeerProb:    0.1,
		ParallelLinkProb: 0.3,
		WeirdPolicyFrac:  0.1,
		NumVantageASes:   8,
		MaxVantagePerAS:  1,
	})
	if err != nil {
		return nil, err
	}
	ds, err := in.RunAllParallel(ctx, pool.DefaultWorkers())
	if err != nil {
		return nil, err
	}
	return ds.Normalize(), nil
}

func emitUpdates(ctx context.Context, path string, seed int64) (int, error) {
	ds, err := genUpdates(ctx, seed)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := mrt.WriteUpdates(f, ds, 1000, 1)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// bootstrapFrom replays the emitted stream back into a dataset so the
// bootstrap universe uses the stream's own (CIDR) prefix naming.
func bootstrapFrom(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, _, err := mrt.UpdatesToDataset(f, 0, 0)
	if err != nil {
		return nil, err
	}
	return ds, nil
}

func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	out := flag.String("out", "BENCH_stream.json", "report output file")
	seed := flag.Int64("seed", 7, "synthetic-internet generator seed")
	batch := flag.Int("batch", 32, "records per stream batch")
	workers := flag.Int("workers", 1, "verify-sweep pool of each batch refinement")
	emit := flag.String("emit", "", "just emit the deterministic MRT update stream to this path and exit")
	flag.Parse()
	ctx := context.Background()
	if *emit != "" {
		n, err := emitUpdates(ctx, *emit, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "streambench:", err)
			os.Exit(1)
		}
		fmt.Printf("streambench: %d records written to %s (seed=%d)\n", n, *emit, *seed)
		return
	}
	if err := run(ctx, *out, *seed, *batch, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "streambench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out string, seed int64, batch, workers int) error {
	dir, err := os.MkdirTemp("", "streambench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	updates := filepath.Join(dir, "updates.mrt")
	nrec, err := emitUpdates(ctx, updates, seed)
	if err != nil {
		return err
	}
	boot, err := bootstrapFrom(updates)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streambench: %d records, batch=%d, workers=%d\n", nrec, batch, workers)

	cfg := func(statePath string) stream.Config {
		return stream.Config{
			Source:       stream.NewFileSource(updates, false, 0),
			StatePath:    statePath,
			BatchRecords: batch,
			Workers:      workers,
			Bootstrap:    boot,
		}
	}

	// Clean run, timing commit-to-commit batch latency.
	cleanState := filepath.Join(dir, "clean.state")
	var lats []int64
	last := time.Now()
	c := cfg(cleanState)
	c.OnCommit = func(*stream.State) {
		now := time.Now()
		lats = append(lats, now.Sub(last).Nanoseconds())
		last = now
	}
	start := time.Now()
	res, err := stream.New(c).Run(ctx)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if res.Batches < 2 {
		return fmt.Errorf("stream too short to benchmark: %d batches", res.Batches)
	}

	// Crash/resume run: stop half way (the state file then looks exactly
	// like a kill after that commit), resume, compare final bytes.
	crashState := filepath.Join(dir, "crash.state")
	half := res.Batches / 2
	c2 := cfg(crashState)
	c2.MaxBatches = half
	if _, err := stream.New(c2).Run(ctx); err != nil {
		return err
	}
	var recovery time.Duration
	c3 := cfg(crashState)
	c3.Observer = func(ev stream.Event) {
		if ev.Type == "recovery" {
			recovery = time.Since(start)
		}
	}
	start = time.Now()
	res2, err := stream.New(c3).Run(ctx)
	if err != nil {
		return err
	}
	if !res2.Recovered {
		return fmt.Errorf("second run did not resume from the committed cursor")
	}
	cleanBytes, err := os.ReadFile(cleanState)
	if err != nil {
		return err
	}
	crashBytes, err := os.ReadFile(crashState)
	if err != nil {
		return err
	}
	identical := bytes.Equal(cleanBytes, crashBytes)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	host, _ := os.Hostname()
	rep := &report{
		Schema: benchSchema, Seed: seed, Batch: batch, Workers: workers,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Hostname: host,
		Note: "oneshot streaming refinement over a seeded synthetic update stream; " +
			"identical = resumed-after-cut state file byte-equals the clean run's",
		Records: res.Records, Batches: res.Batches,
		ChangedPrefixes:    res.Totals.ChangedPrefixes,
		RefinedPrefixes:    res.Totals.RefinedPrefixes,
		Iterations:         res.Totals.Iterations,
		SkippedRecords:     res.Totals.SkippedRecords,
		QuarantinedBatches: res.Totals.QuarantinedBatch,
		BatchP50NS:         percentile(lats, 0.50),
		BatchP90NS:         percentile(lats, 0.90),
		BatchP99NS:         percentile(lats, 0.99),
		BatchMaxNS:         percentile(lats, 1.0),
		ElapsedNS:          elapsed.Nanoseconds(),
		RecordsPerS:        float64(res.Records) / elapsed.Seconds(),
		ResumedAtBatch:     half,
		RecoveryNS:         recovery.Nanoseconds(),
		Identical:          identical,
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("streambench: %d batches (%d records) in %v, p50=%.2fms p99=%.2fms, %.0f records/s, recovery=%.2fms, identical=%v, report %s\n",
		res.Batches, res.Records, elapsed.Round(time.Millisecond),
		float64(rep.BatchP50NS)/1e6, float64(rep.BatchP99NS)/1e6, rep.RecordsPerS,
		float64(rep.RecoveryNS)/1e6, identical, out)
	if !identical {
		return fmt.Errorf("resumed run diverged from the clean run (state files differ)")
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	return durable.WriteFileAtomic(path, durable.Policy{}, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
