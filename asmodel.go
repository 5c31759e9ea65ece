// Package asmodel builds AS-topology models of the Internet that capture
// route diversity, reproducing Mühlbauer, Feldmann, Maennel, Roughan and
// Uhlig, "Building an AS-topology model that captures route diversity"
// (SIGCOMM 2006).
//
// The library models every AS as one or more quasi-routers — logical
// partitions of the AS's route-selection behaviour — and synthesises
// per-prefix routing policies (export filters plus MED ranking) with an
// iterative refinement heuristic until a BGP propagation simulation
// reproduces every AS-path of a training set of BGP observations. The
// refined model predicts unobserved routes and answers what-if questions
// (de-peering, policy changes).
//
// # Workflow
//
//	ds := ... // load a dataset: asmodel.ReadDataset, asmodel.MRTToDataset,
//	          // or asmodel.GenerateInternet(...).RunAll()
//	ds.Normalize()
//	train, valid := ds.SplitByObsPoint(0.5, seed)
//	m, res, err := asmodel.BuildAndRefine(ds, train, asmodel.RefineConfig{})
//	ev, err := m.Evaluate(valid)
//
// Per-prefix simulation is embarrassingly parallel: Model.EvaluateParallel
// fans prefixes across a worker pool of deep model clones and merges
// results deterministically, so it returns exactly what Evaluate would for
// any worker count (DefaultWorkers sizes the pool to the CPU count):
//
//	ev, err := m.EvaluateParallel(ctx, valid, asmodel.DefaultWorkers())
//
// Refinement itself is one sequential walk; its verify sweep re-runs
// only the prefixes a quasi-router duplication could have changed.
//
// The subpackages under internal/ carry the substrates: a C-BGP-style
// static BGP propagation engine (internal/sim), a router-level
// ground-truth simulator with iBGP and hot-potato routing
// (internal/routersim, internal/igp), an MRT/RFC-6396 codec
// (internal/mrt), AS-graph analysis (internal/topology), valley-free
// relationship inference (internal/relation), a synthetic-Internet
// generator (internal/gen), and the evaluation metrics of the paper
// (internal/metrics). This package re-exports the types needed to drive
// the published workflow.
package asmodel

import (
	"context"
	"io"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/ingest"
	"asmodel/internal/lg"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/pool"
	"asmodel/internal/relation"
	"asmodel/internal/serve"
	"asmodel/internal/stream"
	"asmodel/internal/topology"
)

// Core data types.
type (
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Path is an AS-path, neighbor first, origin last.
	Path = bgp.Path
	// Record is one BGP observation: (observation point, prefix, AS-path).
	Record = dataset.Record
	// Dataset is a collection of BGP observations.
	Dataset = dataset.Dataset
	// ObsPointID identifies one BGP feed.
	ObsPointID = dataset.ObsPointID
	// Universe maps prefix names to dense IDs and origins.
	Universe = dataset.Universe
	// Graph is an undirected AS-level graph.
	Graph = topology.Graph
)

// Modeling types.
type (
	// Model is the quasi-router AS-routing model (the paper's primary
	// contribution).
	Model = model.Model
	// RefineConfig controls the iterative refinement heuristic; the zero
	// value is the paper's configuration.
	RefineConfig = model.RefineConfig
	// RefineResult reports what refinement did.
	RefineResult = model.RefineResult
	// Evaluation is the outcome of Model.Evaluate: §4.2 match metrics
	// plus per-prefix coverage.
	Evaluation = model.Evaluation
	// PathChange describes a what-if prediction difference.
	PathChange = model.PathChange
)

// Robustness types: crash-safe checkpointing, cancellation and
// divergence quarantine.
type (
	// CheckpointConfig on RefineConfig enables periodic atomic
	// checkpoints of an in-flight refinement.
	CheckpointConfig = model.CheckpointConfig
	// Checkpoint is a restorable refinement snapshot (model + worklist +
	// counters).
	Checkpoint = model.Checkpoint
	// QuarantineRecord reports a divergence-quarantined prefix and
	// whether the escalated retry recovered it.
	QuarantineRecord = model.QuarantineRecord
	// DivergenceRecord reports a prefix whose evaluation run exhausted
	// its message budget (Evaluation.Divergences).
	DivergenceRecord = model.DivergenceRecord
	// InterruptedError is returned by the context-aware entry points
	// (Model.RefineContext, Model.EvaluateContext) when cancellation
	// stops the run; it carries progress made and the last checkpoint.
	InterruptedError = model.InterruptedError
	// WorkerPanicError is a panic recovered inside a worker of any
	// parallel prefix sweep, attributed to the prefix that raised it.
	// Op names the sweep: "evaluate" (Model.EvaluateParallel),
	// "generate" (ground-truth generation) or "serve" (a serving
	// snapshot's route-table build).
	WorkerPanicError = model.WorkerPanicError
	// IngestOptions selects strict (abort on first malformed record) or
	// lenient (skip, count, bounded by MaxRecordErrors) ingestion.
	IngestOptions = ingest.Options
	// IngestReport summarizes a lenient load: records read, records
	// skipped and the first few errors verbatim.
	IngestReport = ingest.Report
)

// DefaultWorkers is the worker-pool size Model.EvaluateParallel uses for
// "one worker per available CPU": it returns runtime.GOMAXPROCS(0).
// Results are identical at any worker count.
func DefaultWorkers() int { return pool.DefaultWorkers() }

// LoadCheckpointFile reads a refinement checkpoint written during a
// checkpointed Refine run (see CheckpointConfig).
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	return model.LoadCheckpointFile(path)
}

// ResumeRefine continues a checkpointed refinement against the same
// training set; the resumed run converges to the same final model and
// match fractions as an uninterrupted one.
func ResumeRefine(ctx context.Context, cp *Checkpoint, train *Dataset, cfg RefineConfig) (*model.RefineResult, error) {
	return model.ResumeRefine(ctx, cp, train, cfg)
}

// Synthetic-Internet generation (the substitute for Routeviews/RIPE
// feeds).
type (
	// GenConfig parameterizes the synthetic Internet.
	GenConfig = gen.Config
	// Internet is a generated router-level ground-truth Internet.
	Internet = gen.Internet
)

// DefaultGenConfig returns a laptop-scale synthetic-Internet
// configuration with every route-diversity mechanism enabled.
func DefaultGenConfig() GenConfig { return gen.DefaultConfig() }

// GenerateInternet builds a synthetic ground-truth Internet.
func GenerateInternet(cfg GenConfig) (*Internet, error) { return gen.Generate(cfg) }

// ParsePath parses a space-separated AS-path such as "701 1239 24249".
func ParsePath(s string) (Path, error) { return bgp.ParsePath(s) }

// ReadDataset parses the line-oriented dataset text format, aborting on
// the first malformed line. For dirty real-world inputs use
// ReadDatasetReport with lenient IngestOptions.
func ReadDataset(r io.Reader) (*Dataset, error) { return dataset.Read(r) }

// ReadDatasetReport parses the dataset text format under the given
// ingestion policy; in lenient mode malformed lines are skipped and
// counted in the report until the error budget runs out.
func ReadDatasetReport(r io.Reader, opts IngestOptions) (*Dataset, *IngestReport, error) {
	return dataset.ReadReport(r, opts)
}

// MRTToDataset converts an MRT TABLE_DUMP_V2 RIB dump into a dataset,
// aborting on the first malformed record.
func MRTToDataset(r io.Reader) (*Dataset, error) {
	ds, _, err := mrt.ToDataset(r)
	return ds, err
}

// MRTToDatasetReport converts an MRT RIB dump under the given ingestion
// policy; in lenient mode corrupt record bodies are skipped and counted,
// and a torn trailing frame keeps everything up to the last good record.
func MRTToDatasetReport(r io.Reader, opts IngestOptions) (*Dataset, *IngestReport, error) {
	ds, _, rep, err := mrt.ToDatasetOpts(r, opts)
	return ds, rep, err
}

// NewGraph derives the AS-level graph of a dataset (§3.1).
func NewGraph(ds *Dataset) *Graph { return topology.FromDataset(ds) }

// NewModel builds the paper's initial model (§4.5): one quasi-router per
// AS and one session per AS edge, over the universe of the given
// datasets.
func NewModel(g *Graph, dss ...*Dataset) (*Model, error) {
	return model.NewInitial(g, dataset.NewUniverse(dss...))
}

// BuildAndRefine is the end-to-end §4 pipeline: derive the AS graph and
// prefix universe from full (normally the union of training and
// validation feeds, as the paper does in §4.5), build the initial model,
// and refine it against train until the training paths are matched.
func BuildAndRefine(full, train *Dataset, cfg RefineConfig) (*Model, *RefineResult, error) {
	m, err := NewModel(NewGraph(full), full)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Refine(train, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, res, nil
}

// InferTier1 grows the level-1 clique from seed ASes (§3.1).
func InferTier1(g *Graph, seeds []ASN) ([]ASN, error) { return g.Tier1Clique(seeds) }

// InferRelationships runs the valley-free relationship inference used by
// the Table-2 policy baseline (§3.3).
func InferRelationships(ds *Dataset, tier1 []ASN) *relation.Inference {
	return relation.Infer(ds, tier1)
}

// SaveModel writes a refined model to w in the versioned text format; a
// model saved after refinement can be reloaded for prediction and what-if
// studies without re-running the heuristic.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return model.Load(r) }

// ParseLookingGlass parses a "show ip bgp" style looking-glass table into
// dataset records observed at the given AS (see internal/lg for the
// format rules).
func ParseLookingGlass(r io.Reader, obs ObsPointID, localAS ASN, ds *Dataset) error {
	_, err := lg.Parse(r, lg.Options{Obs: obs, LocalAS: localAS}, ds)
	return err
}

// Serving types: the cmd/asmodeld route-prediction daemon as a library —
// an immutable model snapshot behind HTTP/JSON with validated hot-swap,
// load shedding and graceful drain.
type (
	// ServeConfig parameterizes a prediction server (checkpoint/model
	// source, listen address, probe count, in-flight bound, deadlines).
	ServeConfig = serve.Config
	// ServeServer is the daemon: Run serves until the context is
	// canceled, Reload hot-swaps a validated snapshot, SetModel installs
	// an in-memory model.
	ServeServer = serve.Server
	// ServeSnapshot is one immutable serving unit; Predict answers a
	// (vantage, prefix) query against exactly this snapshot.
	ServeSnapshot = serve.Snapshot
	// ServePrediction is the service's answer: predicted path, route
	// diversity, tie-break depth and top-k alternates.
	ServePrediction = serve.Prediction
	// ServeReloadError reports a failed hot-swap; RolledBack tells
	// whether a previous snapshot kept serving.
	ServeReloadError = serve.ReloadError
	// ServeDrainError reports a shutdown drain that exceeded its
	// deadline, cutting off accepted requests.
	ServeDrainError = serve.DrainError
)

// NewServer builds a prediction daemon from the given configuration. No
// I/O happens until Reload, SetModel or Run.
func NewServer(cfg ServeConfig) *ServeServer { return serve.New(cfg) }

// NewServingSnapshot wraps a quiescent refined model for concurrent
// prediction serving without the daemon. It propagates every prefix once
// on n workers (n <= 0 means DefaultWorkers()) into a table of routing
// trees, so no Predict runs the simulator. The model must not change
// while the snapshot serves: queries read its policies.
func NewServingSnapshot(m *Model, n int) *ServeSnapshot {
	return serve.NewSnapshot(m, n)
}

// Streaming types: the `asmodel stream` incremental refinement loop as
// a library — tail an MRT update source, cut deterministic record-count
// batches, delta-refine only changed prefixes, and commit cursor +
// checkpoint atomically after every batch (exactly-once; crash recovery
// byte-identical to an uninterrupted run, see DESIGN.md §9).
type (
	// StreamConfig parameterizes a streaming run (source, state file,
	// batch size, stability filter, worker pool, bootstrap dataset).
	StreamConfig = stream.Config
	// StreamSource feeds MRT records (NewStreamFileSource /
	// NewStreamDirSource build the file and directory tailers).
	StreamSource = stream.Source
	// StreamResult reports a completed or cleanly stopped run: committed
	// cursor position plus cumulative replay/refinement totals.
	StreamResult = stream.Result
	// StreamEvent is one structured trace event ("batch" events are
	// deterministic and post-commit; "recovery"/"stall" are volatile).
	StreamEvent = stream.Event
)

// NewStreamer builds a streaming refinement loop; Run drives it until
// the source ends (oneshot), MaxBatches commits, or the context is
// canceled. A state file left by a previous run resumes it.
func NewStreamer(cfg StreamConfig) *stream.Streamer { return stream.New(cfg) }

// NewStreamFileSource tails one MRT update file; in follow mode it
// polls for appended records instead of stopping at EOF.
func NewStreamFileSource(path string, follow bool, poll time.Duration) StreamSource {
	return stream.NewFileSource(path, follow, poll)
}

// NewStreamDirSource streams a directory of MRT update files in
// lexical filename order; in follow mode it waits for new files (and
// appends to the newest) instead of stopping.
func NewStreamDirSource(dir, pattern string, follow bool, poll time.Duration) StreamSource {
	return stream.NewDirSource(dir, pattern, follow, poll)
}
