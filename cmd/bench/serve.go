package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/serve"
	"asmodel/internal/topology"
)

// Serving traffic. Both serve workloads query the same checkpoint; they
// differ in how much of the prefix universe the queries touch and in
// whether the snapshot is swapped under them.
const (
	zipfS      = 1.1  // prefix popularity skew of serve-zipf
	zipfRate   = 4000 // requests/s, serve-zipf: cache hits, so HTTP-bound
	alternates = 3    // k sent with every query
	// swapsPerWindow is how many times serve-swap reloads the checkpoint
	// during its open loop, evenly spaced from its start. Between two
	// reloads it queries every prefix once, so its rate is the number of
	// prefixes per interval: about 100 requests/s in a 20 s window.
	swapsPerWindow = 4
	// closedShare is the part of the window spent in the closed loop that
	// measures throughput; the open loop measuring latency gets the rest.
	closedShare = 0.2
	// answerSamples is how many HTTP answers are compared with an
	// in-process snapshot of the same checkpoint.
	answerSamples = 100
)

// serveWorkload answers /v1/predict queries from serve.Server on
// 127.0.0.1. It prepares the model once (generate, refine on the training
// half, write a checkpoint); each set-up boots a server from that
// checkpoint and warms it with one query per prefix. The window runs an
// open loop at a fixed rate, timing every request from when it was due,
// then measures throughput. serve-zipf draws prefixes by a fixed Zipf
// popularity and measures throughput with a closed loop of conns
// clients. serve-swap reloads the checkpoint in-process swapsPerWindow
// times during the open loop and queries every prefix once, in seeded
// order, after each reload, so nearly every query misses the cache; its
// throughput is the rate of such queries from conns clients right after
// a reload.
type serveWorkload struct {
	seed int64
	swap bool
	gen  generator
	ckpt string

	m                  *model.Model
	data, train, valid *dataset.Dataset
	prefixes           []string
	vantages           []bgp.ASN

	srv     *runningServer
	client  *http.Client
	reloads []time.Duration
}

func newServe(o options, dir string, swap bool) workload {
	return &serveWorkload{
		seed:   o.seed,
		swap:   swap,
		gen:    generator{cfg: internet(false, o.smoke)},
		ckpt:   filepath.Join(dir, "model.ckpt"),
		client: newClient(),
	}
}

func (s *serveWorkload) params() map[string]any {
	p := internetParams(s.gen.cfg)
	p["connections"] = conns
	p["k"] = alternates
	p["closed_share"] = closedShare
	if s.swap {
		p["queries"] = "every prefix once per reload interval"
		p["reloads_per_open_loop"] = swapsPerWindow
	} else {
		p["queries"] = fmt.Sprintf("zipf(s=%g) over the prefixes in universe order", zipfS)
		p["rate_per_s"] = zipfRate
	}
	return p
}

// prepare builds the model the server loads: the offline pipeline on the
// ground truth, refined on the training half.
func (s *serveWorkload) prepare(ctx context.Context) error {
	ds, err := s.gen.groundTruth(ctx)
	if err != nil {
		return err
	}
	s.data = ds
	s.train, s.valid = ds.SplitByObsPoint(trainFrac, splitSeed)
	s.m, err = model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		return err
	}
	res, err := s.m.RefineContext(ctx, s.train, model.RefineConfig{Workers: workers})
	if err != nil {
		return err
	}
	if err := model.WriteCheckpointFile(s.ckpt, &model.Checkpoint{
		Iteration: res.Iterations, VerifyRounds: res.VerifyRounds, Result: *res, Model: s.m,
	}); err != nil {
		return err
	}
	u := s.m.Universe
	for id := 0; id < u.Len(); id++ {
		s.prefixes = append(s.prefixes, u.Name(bgp.PrefixID(id)))
	}
	for asn := range s.m.QuasiRouterHistogram() {
		s.vantages = append(s.vantages, asn)
	}
	sort.Slice(s.vantages, func(i, j int) bool { return s.vantages[i] < s.vantages[j] })
	return nil
}

// setup boots a fresh server from the checkpoint and warms its cache
// with one query per prefix.
func (s *serveWorkload) setup(ctx context.Context) error {
	if s.srv != nil {
		if err := s.srv.stop(); err != nil {
			return err
		}
		s.srv = nil
	}
	srv, err := startServer(ctx, s.ckpt)
	if err != nil {
		return err
	}
	s.srv = srv
	urls := make([]string, len(s.prefixes))
	for i, p := range s.prefixes {
		urls[i] = s.url(p, s.vantages[i%len(s.vantages)])
	}
	failed, err := fetchEach(ctx, s.client, urls)
	if err == nil && failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d queries failed", failed, len(urls))
	}
	return err
}

func (s *serveWorkload) url(prefix string, vantage bgp.ASN) string {
	return predictURL(s.srv.base, prefix, vantage)
}

func predictURL(base, prefix string, vantage bgp.ASN) string {
	return fmt.Sprintf("%s/v1/predict?vantage=%d&prefix=%s&k=%d", base, vantage, prefix, alternates)
}

// zipfQueries draws n queries: prefixes by Zipf popularity in universe
// order, vantages uniformly.
func (s *serveWorkload) zipfQueries(rng *rand.Rand, n int) []string {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(s.prefixes)-1))
	urls := make([]string, n)
	for i := range urls {
		urls[i] = s.url(s.prefixes[zipf.Uint64()], s.vantages[rng.Intn(len(s.vantages))])
	}
	return urls
}

// sweep queries every prefix once, in seeded order, each from a vantage
// drawn uniformly.
func (s *serveWorkload) sweep(rng *rand.Rand) []string {
	urls := make([]string, 0, len(s.prefixes))
	for _, p := range rng.Perm(len(s.prefixes)) {
		urls = append(urls, s.url(s.prefixes[p], s.vantages[rng.Intn(len(s.vantages))]))
	}
	return urls
}

func (s *serveWorkload) window(ctx context.Context, d time.Duration) (*sample, error) {
	rng := rand.New(rand.NewSource(s.seed))
	closed := time.Duration(float64(d) * closedShare)
	open := d - closed
	rate := float64(zipfRate)
	var urls []string
	var swaps []time.Duration
	if s.swap {
		interval := open / swapsPerWindow
		for i := 0; i < swapsPerWindow; i++ {
			swaps = append(swaps, interval*time.Duration(i))
			urls = append(urls, s.sweep(rng)...)
		}
		rate = float64(len(s.prefixes)) / interval.Seconds()
	} else {
		urls = s.zipfQueries(rng, int(rate*open.Seconds()))
	}
	smp := &sample{}

	start := time.Now().Add(time.Millisecond)
	reloaded := s.reloadAt(ctx, start, swaps, smp)
	var or *openResult
	err := stage(ctx, "loadgen.open", func(ctx context.Context) (err error) {
		or, err = openLoop(ctx, s.client, urls, rate, start)
		return err
	})
	if rerr := reloaded(); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	smp.lat = or.lat
	smp.ops += int64(len(urls))
	smp.attempted += int64(len(urls))
	smp.failed += or.failed
	smp.genLate = or.late

	if s.swap {
		err = stage(ctx, "loadgen.rewarm", func(ctx context.Context) error { return s.rewarm(ctx, rng, closed, smp) })
		return smp, err
	}
	closedURLs := s.zipfQueries(rng, 1<<16)
	var n, failed int64
	err = stage(ctx, "loadgen.closed", func(ctx context.Context) (err error) {
		n, failed, smp.workTime, err = closedLoop(ctx, s.client, closedURLs, closed)
		return err
	})
	smp.work = float64(n - failed)
	smp.ops += n
	smp.attempted += n
	smp.failed += failed
	return smp, err
}

// reload swaps in a fresh load of the checkpoint and records how long the
// load-validate-swap took.
func (s *serveWorkload) reload(ctx context.Context) error {
	return stage(ctx, "serve.Reload", func(ctx context.Context) error {
		t0 := time.Now()
		_, err := s.srv.srv.Reload(ctx)
		s.reloads = append(s.reloads, time.Since(t0))
		return err
	})
}

// reloadAt reloads the checkpoint at each offset from start while the
// open loop runs. The returned function waits for the reloads and counts
// them as operations of the sample.
func (s *serveWorkload) reloadAt(ctx context.Context, start time.Time, offsets []time.Duration, smp *sample) func() error {
	var failed int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, off := range offsets {
			select {
			case <-time.After(time.Until(start.Add(off))):
			case <-ctx.Done():
				return
			}
			if s.reload(ctx) != nil {
				failed++
			}
		}
	}()
	return func() error {
		<-done
		smp.attempted += int64(len(offsets))
		smp.failed += failed
		return ctx.Err()
	}
}

// rewarm is serve-swap's throughput: after each reload every prefix is
// queried once from conns clients, so every query is a cache miss, until
// d has passed. The reloads themselves are not timed.
func (s *serveWorkload) rewarm(ctx context.Context, rng *rand.Rand, d time.Duration, smp *sample) error {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		smp.attempted++
		if s.reload(ctx) != nil {
			smp.failed++
		}
		urls := s.sweep(rng)
		t0 := time.Now()
		failed, err := fetchEach(ctx, s.client, urls)
		if err != nil {
			return err
		}
		smp.workTime += time.Since(t0)
		smp.work += float64(int64(len(urls)) - failed)
		smp.ops += int64(len(urls))
		smp.attempted += int64(len(urls))
		smp.failed += failed
	}
	return nil
}

func (s *serveWorkload) finish(ctx context.Context, r *report) (*probeInputs, error) {
	r.check("http_matches_snapshot", s.checkAnswers(ctx))
	r.check("checkpoint_roundtrip", checkRoundTrip(s.ckpt, s.m))
	if err := validate(ctx, r, s.m, s.valid); err != nil {
		return nil, err
	}
	s.gen.report(r)
	if len(s.reloads) > 0 {
		r.Notes["window_reload_ms_p50"] = float64(medianDuration(s.reloads)) / float64(time.Millisecond)
	}
	return &probeInputs{model: s.m, data: s.data, train: s.train, checkpoint: s.ckpt}, nil
}

// checkAnswers compares sampled HTTP answers with Snapshot.Predict on an
// independent load of the same checkpoint: same path, same tie-break
// step.
func (s *serveWorkload) checkAnswers(ctx context.Context) error {
	cp, err := model.LoadCheckpointFile(s.ckpt)
	if err != nil {
		return err
	}
	return compareAnswers(ctx, s.client, s.srv.base, serve.NewSnapshot(cp.Model, 1), s.prefixes, s.vantages, s.seed)
}

func compareAnswers(ctx context.Context, c *http.Client, base string, snap *serve.Snapshot, prefixes []string, vantages []bgp.ASN, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < answerSamples; i++ {
		prefix, vantage := prefixes[rng.Intn(len(prefixes))], vantages[rng.Intn(len(vantages))]
		want, err := snap.Predict(ctx, prefix, vantage, alternates)
		if err != nil {
			return err
		}
		got, err := fetchPrediction(c, predictURL(base, prefix, vantage))
		if err != nil {
			return err
		}
		if got.Path != want.Path || got.TieBreakStep != want.TieBreakStep {
			return fmt.Errorf("AS%d %s: served path %q (tie-break %s), snapshot predicts %q (%s)",
				vantage, prefix, got.Path, got.TieBreakStep, want.Path, want.TieBreakStep)
		}
	}
	return nil
}

func fetchPrediction(c *http.Client, url string) (*serve.Prediction, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var p serve.Prediction
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return &p, nil
}

func (s *serveWorkload) close() {
	if s.srv != nil {
		_ = s.srv.stop() // the run is over; a drain overrun changes nothing
	}
	s.client.CloseIdleConnections()
}

// runningServer is a serve.Server running on a loopback port.
type runningServer struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

// startServer boots a server from the checkpoint and returns once it
// accepts connections.
func startServer(ctx context.Context, ckpt string) (*runningServer, error) {
	ready := make(chan string, 1)
	srv := serve.New(serve.Config{
		CheckpointPath: ckpt,
		Addr:           "127.0.0.1:0",
		OnReady:        func(addr string) { ready <- addr },
	})
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	select {
	case addr := <-ready:
		return &runningServer{srv: srv, base: "http://" + addr, cancel: cancel, done: done}, nil
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("server exited before it was ready: %v", err)
	}
}

// stop drains the server and waits for Run to return.
func (r *runningServer) stop() error {
	r.cancel()
	return <-r.done
}
