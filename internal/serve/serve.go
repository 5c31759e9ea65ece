package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/model"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
)

var (
	mReloads     = obs.GetCounter("serve_reloads_total", "successful snapshot hot-swaps (including the boot load)")
	mReloadFails = obs.GetCounter("serve_reload_failures_total", "reload attempts that failed to load or validate")
	mRollbacks   = obs.GetCounter("serve_rollbacks_total", "failed reloads rolled back while a previous snapshot kept serving")
	mSnapSeq     = obs.GetGauge("serve_snapshot_seq", "sequence number of the serving snapshot")
	mSnapIter    = obs.GetGauge("serve_snapshot_iteration", "refinement iteration of the serving snapshot")
	mTableBytes  = obs.GetGauge("serve_table_bytes", "row storage of the serving snapshot's routing-tree table (2 bytes per prefix and quasi-router)")
)

// Defaults for Config's zero values.
const (
	DefaultProbes         = 8
	DefaultMaxInflight    = 64
	DefaultRequestTimeout = 2 * time.Second
	DefaultDrainTimeout   = 10 * time.Second
	DefaultAlternates     = 3
)

// Config parameterizes a prediction server. The zero value is not
// usable: one of CheckpointPath or ModelPath must be set (or the
// snapshot installed directly via SetModel).
type Config struct {
	// CheckpointPath loads the model out of a refinement checkpoint
	// (asmodel-checkpoint-v1) or a stream state file
	// (asmodel-stream-cursor-v1, whose embedded checkpoint is read
	// through the cursor header), falling back to its ".bak" when the
	// primary is corrupt — the same recovery LoadCheckpointFile gives
	// the resume path. Pointing this at an `asmodel stream` -state file
	// hot-swaps the served model after every committed batch.
	CheckpointPath string
	// ModelPath loads a plain SaveModel stream instead; ignored when
	// CheckpointPath is set.
	ModelPath string
	// Addr is the HTTP listen address (":0" picks a free port).
	Addr string
	// Probes is how many sample prefixes of a candidate snapshot's route
	// table must have propagated divergence-free before it may replace
	// the serving one (0 = DefaultProbes, negative = probing disabled).
	Probes int
	// MaxInflight bounds concurrently served prediction requests;
	// excess load is shed with 429 + Retry-After instead of queueing
	// toward collapse (0 = DefaultMaxInflight).
	MaxInflight int
	// RequestTimeout is the per-request deadline; a request that
	// overruns it turns into a typed 504 (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// DrainTimeout bounds the SIGINT/SIGTERM graceful drain; requests
	// still running after it are cut off and Run returns *DrainError
	// (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// WatchInterval polls CheckpointPath/ModelPath for changes and
	// hot-swaps automatically (0 disables the watcher; POST /-/reload
	// always works).
	WatchInterval time.Duration
	// WatchDebounce makes the watcher wait until the source file's
	// stamp has been stable for this long before reloading, so a
	// producer committing rapid successive checkpoints (asmodel stream
	// under a fast batch cadence) triggers one swap per quiet period
	// instead of one per write (0 reloads immediately on change).
	WatchDebounce time.Duration
	// MaxAlternates is the default top-k alternates per response when
	// the query does not pass ?k= (0 = DefaultAlternates, negative =
	// none).
	MaxAlternates int
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// OnReady, when set, is called once with the bound listen address
	// after the server starts accepting (useful with Addr ":0").
	OnReady func(addr string)
}

func (c Config) norm() Config {
	if c.Probes == 0 {
		c.Probes = DefaultProbes
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxAlternates == 0 {
		c.MaxAlternates = DefaultAlternates
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// sourcePath returns the file the server loads snapshots from.
func (c Config) sourcePath() string {
	if c.CheckpointPath != "" {
		return c.CheckpointPath
	}
	return c.ModelPath
}

// ValidationError reports a candidate snapshot that loaded but failed
// its pre-swap self-check; the serving snapshot is untouched.
type ValidationError struct {
	Probes int    // probes attempted
	Prefix string // prefix of the failing probe ("" when none ran)
	Err    error
}

func (e *ValidationError) Error() string {
	if e.Prefix != "" {
		return fmt.Sprintf("serve: snapshot validation failed on prefix %s (after %d probes): %v", e.Prefix, e.Probes, e.Err)
	}
	return fmt.Sprintf("serve: snapshot validation failed: %v", e.Err)
}

func (e *ValidationError) Unwrap() error { return e.Err }

// ReloadError reports a failed reload attempt. When RolledBack is true
// a previous snapshot is still serving; otherwise the server has no
// snapshot yet (boot failure).
type ReloadError struct {
	Path       string
	RolledBack bool
	Err        error
}

func (e *ReloadError) Error() string {
	verdict := "no snapshot installed"
	if e.RolledBack {
		verdict = "rolled back to serving snapshot"
	}
	return fmt.Sprintf("serve: reload of %s failed (%s): %v", e.Path, verdict, e.Err)
}

func (e *ReloadError) Unwrap() error { return e.Err }

// DrainError reports a shutdown drain that exceeded its deadline: the
// listener closed cleanly but some accepted requests were cut off.
type DrainError struct {
	Timeout time.Duration
	Err     error
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("serve: drain deadline (%v) exceeded, in-flight requests aborted: %v", e.Timeout, e.Err)
}

func (e *DrainError) Unwrap() error { return e.Err }

// Server is a route-prediction daemon: an atomically swappable Snapshot
// behind an HTTP surface with load shedding, deadlines and drain.
type Server struct {
	cfg Config

	snap     atomic.Pointer[Snapshot]
	nextSeq  atomic.Int64
	inflight chan struct{}
	draining atomic.Bool

	// reloadMu serializes load-and-swap; queries never take it.
	reloadMu chMutex

	httpSrv *http.Server
	ln      net.Listener
}

// chMutex is a channel-based mutex so reloads can respect context
// cancellation while queued behind another reload.
type chMutex chan struct{}

func (m chMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chMutex) unlock() { <-m }

// New builds a Server. No I/O happens until Reload or Run.
func New(cfg Config) *Server {
	cfg = cfg.norm()
	return &Server{
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInflight),
		reloadMu: make(chMutex, 1),
	}
}

// Snapshot returns the serving snapshot, or nil before the first
// successful load.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Ready reports whether the server can answer predictions: a snapshot
// is installed and no drain is in progress. /readyz follows it.
func (s *Server) Ready() bool { return !s.draining.Load() && s.snap.Load() != nil }

// SetModel installs an in-memory model as the serving snapshot,
// bypassing file loading (tests and embedders). It builds and validates
// the snapshot the same way a file reload does.
func (s *Server) SetModel(ctx context.Context, m *model.Model) error {
	return s.install(ctx, func(workers int) (*Snapshot, error) {
		return buildSnapshot(ctx, m, workers)
	}, "(in-memory model)")
}

// Reload loads the configured checkpoint/model file aside, builds its
// route table, validates it with sample prefixes, and atomically swaps
// it in. On any failure — unreadable file, truncation, corrupt content,
// a panicking build, probe divergence — the serving snapshot keeps
// serving and a *ReloadError reports the rollback. Concurrent reloads
// serialize; queries are never blocked by a reload.
func (s *Server) Reload(ctx context.Context) (*Snapshot, error) {
	path := s.cfg.sourcePath()
	if path == "" {
		return nil, errors.New("serve: no checkpoint or model path configured")
	}
	var snap *Snapshot
	err := s.install(ctx, func(workers int) (*Snapshot, error) {
		return s.loadFile(ctx, path, workers)
	}, path)
	if err == nil {
		snap = s.snap.Load()
	}
	return snap, err
}

// install runs build+validate+swap under the reload lock. The boot
// build uses every CPU; a replacement build, made while another snapshot
// serves, leaves one CPU to the queries.
func (s *Server) install(ctx context.Context, build func(workers int) (*Snapshot, error), what string) error {
	if err := s.reloadMu.lock(ctx); err != nil {
		return err
	}
	defer s.reloadMu.unlock()

	fail := func(err error) error {
		mReloadFails.Inc()
		rolledBack := s.snap.Load() != nil
		if rolledBack {
			mRollbacks.Inc()
		}
		s.cfg.Logf("serve: reload of %s failed: %v (rolled back: %v)", what, err, rolledBack)
		return &ReloadError{Path: what, RolledBack: rolledBack, Err: err}
	}

	workers := pool.DefaultWorkers()
	if s.snap.Load() != nil {
		workers = max(1, workers-1)
	}
	snap, err := build(workers)
	if err != nil {
		return fail(err)
	}
	if err := s.validate(snap); err != nil {
		return fail(err)
	}
	snap.Seq = s.nextSeq.Add(1)
	s.snap.Store(snap)
	mReloads.Inc()
	mSnapSeq.Set(snap.Seq)
	mSnapIter.Set(int64(snap.Iteration))
	mTableBytes.Set(int64(2 * len(snap.table.rows)))
	s.cfg.Logf("serve: snapshot %d serving (%s, %d prefixes, %d quasi-routers)",
		snap.Seq, describeSource(snap), snap.base.Universe.Len(), snap.base.NumQuasiRouters())
	return nil
}

func describeSource(snap *Snapshot) string {
	if snap.Source == "" {
		return snap.Origin
	}
	return fmt.Sprintf("%s %s", snap.Origin, snap.Source)
}

// loadFile builds a candidate snapshot from the configured file.
func (s *Server) loadFile(ctx context.Context, path string, workers int) (*Snapshot, error) {
	if s.cfg.CheckpointPath != "" {
		cp, err := model.LoadCheckpointFile(path)
		if err != nil {
			return nil, err
		}
		snap, err := buildSnapshot(ctx, cp.Model, workers)
		snap.Origin = "checkpoint"
		snap.Source = cp.Source
		snap.Iteration = cp.Iteration
		return snap, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := model.Load(f)
	if err != nil {
		return nil, err
	}
	snap, err := buildSnapshot(ctx, m, workers)
	snap.Origin = "model"
	snap.Source = path
	return snap, err
}

// validate checks cfg.Probes sample prefixes spread across the prefix
// universe in the candidate's route table: every probeable one must have
// propagated without error (divergence, missing origins). The build has
// already propagated them, so validation reads their outcomes.
func (s *Server) validate(snap *Snapshot) error {
	if s.cfg.Probes < 0 {
		return nil
	}
	u := snap.base.Universe
	n := u.Len()
	if n == 0 {
		return &ValidationError{Err: errors.New("empty prefix universe")}
	}
	probes := s.cfg.Probes
	if probes > n {
		probes = n
	}
	ran := 0
	for i := 0; i < probes; i++ {
		id := bgp.PrefixID(i * n / probes)
		if !probeable(snap.base, id) {
			continue
		}
		if err := snap.table.errs[id]; err != nil {
			return &ValidationError{Probes: ran + 1, Prefix: u.Name(id), Err: err}
		}
		ran++
	}
	if ran == 0 {
		return &ValidationError{Err: fmt.Errorf("no probeable prefix among %d sampled (all missing origins)", probes)}
	}
	return nil
}

// probeable reports whether the prefix has at least one origin AS with
// quasi-routers — i.e. RunPrefix can propagate it.
func probeable(m *model.Model, id bgp.PrefixID) bool {
	for _, asn := range m.Universe.Origins(id) {
		if len(m.QuasiRouters(asn)) > 0 {
			return true
		}
	}
	return false
}

// fileStamp is the change-detection fingerprint the watcher polls.
type fileStamp struct {
	mod  time.Time
	size int64
}

func stampOf(path string) fileStamp {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{}
	}
	return fileStamp{fi.ModTime(), fi.Size()}
}

// watch polls the source file and reloads on mtime/size changes until
// ctx is done. last is the baseline stamp, captured BEFORE the boot
// load: a file rewritten between that load and the watcher's first tick
// still differs from the baseline and is picked up, instead of being
// silently adopted as the baseline and ignored until the next change.
// With WatchDebounce set, a detected change is held until the stamp has
// stayed unchanged for the debounce window, so a burst of commits
// (a streaming producer) costs one validated hot-swap, not one per
// write. Reload failures roll back and are retried on the next change.
func (s *Server) watch(ctx context.Context, last fileStamp) {
	path := s.cfg.sourcePath()
	t := time.NewTicker(s.cfg.WatchInterval)
	defer t.Stop()
	pending := false
	var pendingStamp fileStamp
	var stableSince time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cur := stampOf(path)
		if cur == (fileStamp{}) {
			continue
		}
		if !pending {
			if cur == last {
				continue
			}
			pending = true
			pendingStamp = cur
			stableSince = time.Now()
		} else if cur != pendingStamp {
			// Still being rewritten: restart the quiet-period clock.
			pendingStamp = cur
			stableSince = time.Now()
		}
		if s.cfg.WatchDebounce > 0 && time.Since(stableSince) < s.cfg.WatchDebounce {
			continue
		}
		last = cur
		pending = false
		s.cfg.Logf("serve: %s changed, reloading", path)
		if _, err := s.Reload(ctx); err != nil {
			s.cfg.Logf("serve: watcher reload: %v", err)
		}
	}
}

// Run serves until ctx is canceled: boot load (unless a snapshot is
// already installed), listen, optional watcher, then a graceful drain
// bounded by DrainTimeout. A clean drain returns nil; an overrun drain
// returns *DrainError; listener/boot failures return the underlying
// error.
func (s *Server) Run(ctx context.Context) error {
	// The watcher's baseline is stamped before the boot load so a file
	// rewritten while we load or start up is still detected as a change.
	bootStamp := stampOf(s.cfg.sourcePath())
	if s.snap.Load() == nil {
		if _, err := s.Reload(ctx); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	if s.cfg.OnReady != nil {
		s.cfg.OnReady(ln.Addr().String())
	}
	s.cfg.Logf("serve: listening on %s", ln.Addr())
	if s.cfg.WatchInterval > 0 && s.cfg.sourcePath() != "" {
		go s.watch(ctx, bootStamp)
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: flip unready so probes unroute us, stop accepting, let
	// accepted requests finish within the deadline.
	s.draining.Store(true)
	s.cfg.Logf("serve: draining (deadline %v)", s.cfg.DrainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := s.httpSrv.Shutdown(shutdownCtx); err != nil {
		s.httpSrv.Close()
		return &DrainError{Timeout: s.cfg.DrainTimeout, Err: err}
	}
	s.cfg.Logf("serve: drained cleanly")
	return nil
}

// Addr returns the bound listen address once Run has started listening
// ("" before).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}
