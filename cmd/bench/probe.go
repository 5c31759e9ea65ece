package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/metrics"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
	"asmodel/internal/serve"
	"asmodel/internal/topology"
)

// layerMetric is one per-layer metric a traced run reports. README.md
// gives each one's meaning and the end-to-end metric it should move;
// BENCHMARK.json declares the same names and units.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"bgp.decide_ns_per_call", "ns"},
	{"bgp.decide_allocs_per_call", "count"},
	{"bgp.decide_candidates_mean", "count"},
	{"sim.runs_per_op", "count"},
	{"sim.messages_per_op", "count"},
	{"sim.routes_installed_per_op", "count"},
	{"sim.best_changes_per_op", "count"},
	{"sim.messages_per_run_p50", "count"},
	{"sim.run_ms_p50", "ms"},
	{"sim.run_ms_p99", "ms"},
	{"sim.allocs_per_message", "count"},
	{"sim.queue_highwater_max", "count"},
	{"refine.iterations", "count"},
	{"refine.iteration_s_max", "s"},
	{"refine.verify_rounds", "count"},
	{"refine.sim_runs", "count"},
	{"refine.sim_messages", "count"},
	{"refine.actions", "count"},
	{"refine.quasi_routers", "count"},
	{"speculate.attempts", "count"},
	{"speculate.conflicts", "count"},
	{"speculate.useful_frac", "frac"},
	{"speculate.extra_messages", "count"},
	{"classify.paths", "count"},
	{"classify.ns_per_path", "ns"},
	{"evaluate.s", "s"},
	{"mrt.rib_parse_records_per_s", "1/s"},
	{"mrt.rib_parse_allocs_per_record", "count"},
	{"mrt.update_apply_us", "us"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"checkpoint.allocs", "count"},
	{"stream.batches", "count"},
	{"stream.refined_prefixes", "count"},
	{"stream.state_bytes", "bytes"},
	{"serve.predict_cold_ms_p50", "ms"},
	{"serve.predict_cold_ms_p99", "ms"},
	{"serve.predict_warm_us_p50", "us"},
	{"serve.clone_ms", "ms"},
	{"serve.reload_ms", "ms"},
	{"serve.http_overhead_us_p50", "us"},
	{"serve.gen_late_ms_max", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.propagations_per_op", "count"},
	{"serve.clones_per_op", "count"},
	{"serve.coalesced_per_op", "count"},
	{"gen.run_all_s", "s"},
	{"gen.records", "count"},
	{"trace.overhead_frac", "frac"},
}

// probeInputs are the workload's own artifacts the layer probes run on.
type probeInputs struct {
	model      *model.Model     // the final refined model; probes only clone it
	data       *dataset.Dataset // the whole dataset, named like the model's universe
	train      *dataset.Dataset // its training half
	rib        []byte           // a TABLE_DUMP_V2 dump of data (encoded from data if nil)
	updates    []byte           // a BGP4MP update stream (encoded from data if nil)
	checkpoint string           // the final checkpoint or stream state file
}

// minProbeTime is how long a probe repeats a fast call before it divides
// the elapsed time by the number of calls.
const minProbeTime = 100 * time.Millisecond

// runProbes calls each layer's public functions on the workload's inputs
// and returns the per-layer values they measure.
func runProbes(ctx context.Context, in *probeInputs) (map[string]float64, error) {
	var err error
	if in.rib == nil {
		if in.rib, err = encodeRIB(in.data); err != nil {
			return nil, err
		}
	}
	if in.updates == nil {
		if in.updates, err = encodeUpdates(in.data); err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64)
	for _, probe := range []func(context.Context, *probeInputs, map[string]float64) error{
		probeRefine, probePropagate, probeMRT, probeCheckpoint, probeServe,
	} {
		if err := probe(ctx, in, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeRefine refines a fresh initial model of the workload's data on its
// training half twice: at the workload's worker count, traced, for the
// refinement and speculation counts; and at one worker, the reference
// that shows how many messages speculation added.
func probeRefine(ctx context.Context, in *probeInputs, out map[string]float64) error {
	refine := func(ctx context.Context, w int) (*model.RefineResult, *model.Model, map[string]float64, error) {
		m, err := model.NewInitial(topology.FromDataset(in.data), dataset.NewUniverse(in.data))
		if err != nil {
			return nil, nil, nil, err
		}
		before := counterValues()
		res, err := m.RefineContext(ctx, in.train, model.RefineConfig{Workers: w})
		after := counterValues()
		delta := make(map[string]float64)
		for k, v := range after {
			delta[k] = float64(v - before[k])
		}
		return res, m, delta, err
	}
	rec := obs.NewSpanRecorder(nil, "probe", obs.SpanOptions{})
	res, m, par, err := refine(obs.ContextWithSpan(ctx, rec.Root()), workers)
	if err != nil {
		return err
	}
	_ = rec.Finish() // no sink: nothing is emitted
	_, _, seq, err := refine(ctx, 1)
	if err != nil {
		return err
	}
	const msgs = "sim_messages_delivered_total"
	out["refine.iterations"] = float64(res.Iterations)
	out["refine.iteration_s_max"] = maxSpanSeconds(rec.Root(), "iteration")
	out["refine.verify_rounds"] = float64(res.VerifyRounds)
	out["refine.sim_runs"] = par["sim_runs_total"]
	out["refine.sim_messages"] = par[msgs]
	out["refine.actions"] = float64(res.FiltersAdded + res.FiltersRemoved + res.MEDRules + res.LocalPrefRules + res.QuasiRoutersAdded)
	out["refine.quasi_routers"] = float64(m.NumQuasiRouters())
	att, conf := par["refine_speculations_total"], par["refine_conflicts_total"]
	out["speculate.attempts"], out["speculate.conflicts"] = att, conf
	if att > 0 {
		out["speculate.useful_frac"] = (att - conf) / att
	}
	out["speculate.extra_messages"] = par[msgs] - seq[msgs]
	return nil
}

func maxSpanSeconds(s *obs.Span, name string) float64 {
	best := 0.0
	if s.Name() == name {
		best = s.Seconds()
	}
	for _, c := range s.Children() {
		best = max(best, maxSpanSeconds(c, name))
	}
	return best
}

// probePropagate runs every prefix through a clone of the model,
// timing each sim run, classifying the prefix's observed paths against
// the result, and keeping the candidate sets of a sample of prefixes for
// the decision-process probe.
func probePropagate(ctx context.Context, in *probeInputs, out map[string]float64) error {
	m := in.model.Clone()
	u := m.Universe
	cls := metrics.NewClassifier(m.Net)
	sampleEvery := max(1, u.Len()/32)
	var (
		runs              []time.Duration
		msgsPerRun        []int
		msgs, allocs      uint64
		highWater, paths  int
		classify          time.Duration
		sets              [][]*bgp.Route
		before, afterStat runtime.MemStats
	)
	for id := 0; id < u.Len(); id++ {
		pid := bgp.PrefixID(id)
		if !propagatable(m, pid) {
			continue
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if err := m.RunPrefixContext(ctx, pid); err != nil {
			return err
		}
		runs = append(runs, time.Since(t0))
		runtime.ReadMemStats(&afterStat)
		allocs += afterStat.Mallocs - before.Mallocs
		st := m.Net.LastRunStats()
		msgs += uint64(st.Messages)
		msgsPerRun = append(msgsPerRun, st.Messages)
		highWater = max(highWater, st.QueueHighWater)

		t1 := time.Now()
		for _, ps := range in.data.ObservedPaths(u.Name(pid)) {
			for _, p := range ps {
				cls.Classify(p)
				paths++
			}
		}
		classify += time.Since(t1)
		if id%sampleEvery == 0 {
			for _, r := range m.Net.Routers() {
				if cands, _ := r.DecideRIB(); len(cands) > 1 {
					sets = append(sets, cands)
				}
			}
		}
	}
	runs = sortedCopy(runs)
	out["sim.run_ms_p50"] = ms(percentile(runs, 0.50))
	out["sim.run_ms_p99"] = ms(percentile(runs, 0.99))
	out["sim.messages_per_run_p50"] = float64(percentile(sortedCopy(msgsPerRun), 0.50))
	if msgs > 0 {
		out["sim.allocs_per_message"] = float64(allocs) / float64(msgs)
	}
	out["sim.queue_highwater_max"] = float64(highWater)
	out["classify.paths"] = float64(paths)
	if paths > 0 {
		out["classify.ns_per_path"] = float64(classify.Nanoseconds()) / float64(paths)
	}
	probeDecide(m.Net.Config(), sets, out)
	return nil
}

// propagatable reports whether some origin AS of the prefix has
// quasi-routers, so the model can run it.
func propagatable(m *model.Model, id bgp.PrefixID) bool {
	for _, asn := range m.Universe.Origins(id) {
		if len(m.QuasiRouters(asn)) > 0 {
			return true
		}
	}
	return false
}

// probeDecide times bgp.Decide over real RIB-In candidate sets, reusing
// one elimination buffer as the simulator does.
func probeDecide(cfg bgp.DecisionConfig, sets [][]*bgp.Route, out map[string]float64) {
	if len(sets) == 0 {
		return
	}
	var buf []bgp.Step
	var calls, cands int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < minProbeTime {
		for _, set := range sets {
			_, buf = bgp.Decide(cfg, set, buf)
			calls++
			cands += len(set)
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	out["bgp.decide_ns_per_call"] = float64(elapsed.Nanoseconds()) / float64(calls)
	out["bgp.decide_allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / float64(calls)
	out["bgp.decide_candidates_mean"] = float64(cands) / float64(calls)
}

// probeMRT parses the RIB dump and replays the update stream through a
// Replayer, each repeatedly for at least minProbeTime.
func probeMRT(_ context.Context, in *probeInputs, out map[string]float64) error {
	var entries int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	elapsed, err := repeat(func() error {
		_, st, err := mrt.ToDataset(bytes.NewReader(in.rib))
		if err == nil {
			entries += st.Entries
		}
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	out["mrt.rib_parse_records_per_s"] = float64(entries) / elapsed.Seconds()
	out["mrt.rib_parse_allocs_per_record"] = float64(after.Mallocs-before.Mallocs) / float64(entries)

	var records int
	elapsed, err = repeat(func() error {
		rd := mrt.NewReader(bytes.NewReader(in.updates))
		rp := mrt.NewReplayer(0, 0)
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := rp.Apply(rec); err != nil {
				return err
			}
			records++
		}
	})
	if err != nil {
		return err
	}
	out["mrt.update_apply_us"] = float64(elapsed.Microseconds()) / float64(records)
	return nil
}

// repeat calls f until minProbeTime has passed (at least once) and
// returns the total time.
func repeat(f func() error) (time.Duration, error) {
	t0 := time.Now()
	for first := true; first || time.Since(t0) < minProbeTime; first = false {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// probeCheckpoint encodes the model as a checkpoint and decodes the
// workload's own checkpoint file.
func probeCheckpoint(_ context.Context, in *probeInputs, out map[string]float64) error {
	file, err := os.ReadFile(in.checkpoint)
	if err != nil {
		return err
	}
	cp := &model.Checkpoint{Model: in.model}
	var buf bytes.Buffer
	encode := func() error { buf.Reset(); return model.WriteCheckpoint(&buf, cp) }
	decode := func() error { _, err := model.LoadCheckpoint(bytes.NewReader(file)); return err }

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := encode(); err != nil {
		return err
	}
	if err := decode(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	out["checkpoint.allocs"] = float64(after.Mallocs - before.Mallocs)
	out["checkpoint.bytes"] = float64(buf.Len())
	for name, f := range map[string]func() error{"checkpoint.encode_ms": encode, "checkpoint.decode_ms": decode} {
		var n int
		elapsed, err := repeat(func() error { n++; return f() })
		if err != nil {
			return err
		}
		out[name] = ms(elapsed) / float64(n)
	}
	return nil
}

// probeServe measures the serving layer on the model: cold and warm
// Snapshot.Predict, a model clone, a checkpoint reload, and the HTTP cost
// of a warm query under a light open loop.
func probeServe(ctx context.Context, in *probeInputs, out map[string]float64) error {
	snap := serve.NewSnapshot(in.model, 1)
	var vantages []bgp.ASN
	for asn := range in.model.QuasiRouterHistogram() {
		vantages = append(vantages, asn)
	}
	sort.Slice(vantages, func(i, j int) bool { return vantages[i] < vantages[j] })
	u := in.model.Universe
	var names []string
	for id := 0; id < u.Len(); id++ {
		if propagatable(in.model, bgp.PrefixID(id)) {
			names = append(names, u.Name(bgp.PrefixID(id)))
		}
	}
	predictAll := func() ([]time.Duration, error) {
		var lat []time.Duration
		for i, name := range names {
			t0 := time.Now()
			if _, err := snap.Predict(ctx, name, vantages[i%len(vantages)], alternates); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(t0))
		}
		return sortedCopy(lat), nil
	}
	cold, err := predictAll()
	if err != nil {
		return err
	}
	warm, err := predictAll()
	if err != nil {
		return err
	}
	out["serve.predict_cold_ms_p50"] = ms(percentile(cold, 0.50))
	out["serve.predict_cold_ms_p99"] = ms(percentile(cold, 0.99))
	out["serve.predict_warm_us_p50"] = us(percentile(warm, 0.50))

	var clones, reloads []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		in.model.Clone()
		clones = append(clones, time.Since(t0))
	}
	out["serve.clone_ms"] = ms(medianDuration(clones))
	srv := serve.New(serve.Config{CheckpointPath: in.checkpoint})
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := srv.Reload(ctx); err != nil {
			return err
		}
		reloads = append(reloads, time.Since(t0))
	}
	out["serve.reload_ms"] = ms(medianDuration(reloads))

	// HTTP cost: a light open loop over a few warm queries, its service
	// time compared with the in-process warm Predict.
	rs, err := startServer(ctx, in.checkpoint)
	if err != nil {
		return err
	}
	defer rs.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(1))
	var urls []string
	for i := 0; i < 16; i++ {
		urls = append(urls, predictURL(rs.base, names[rng.Intn(len(names))], vantages[rng.Intn(len(vantages))]))
	}
	if failed, err := fetchEach(ctx, c, urls); err != nil || failed > 0 {
		return fmt.Errorf("warming the HTTP probe: %d queries failed (%v)", failed, err)
	}
	const rate, n = 4000, 1000
	load := make([]string, n)
	for i := range load {
		load[i] = urls[i%len(urls)]
	}
	or, err := openLoop(ctx, c, load, rate, time.Now().Add(time.Millisecond))
	if err != nil {
		return err
	}
	out["serve.http_overhead_us_p50"] = us(percentile(sortedCopy(or.svc), 0.5)) - out["serve.predict_warm_us_p50"]
	out["serve.gen_late_ms_max"] = ms(or.late)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
