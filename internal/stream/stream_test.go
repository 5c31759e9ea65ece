package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/serve"
)

// --- Fixture -------------------------------------------------------------

var (
	fixtureOnce sync.Once
	fixtureDS   *dataset.Dataset
	fixtureErr  error
)

// testDataset generates a small synthetic internet once per test binary.
func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	fixtureOnce.Do(func() {
		in, err := gen.Generate(gen.Config{
			Seed:             7,
			NumTier1:         2,
			NumTier2:         4,
			NumTier3:         6,
			NumStub:          8,
			RoutersTier1:     2,
			RoutersTier2:     2,
			RoutersTier3:     1,
			MultiHomeProb:    0.5,
			Tier2PeerProb:    0.2,
			Tier3PeerProb:    0.1,
			ParallelLinkProb: 0.3,
			WeirdPolicyFrac:  0.1,
			NumVantageASes:   6,
			MaxVantagePerAS:  1,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		ds, err := in.RunAll()
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureDS = ds.Normalize()
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDS
}

// writeUpdatesFile emits the fixture dataset as an MRT update stream and
// returns the file path and record count.
func writeUpdatesFile(t testing.TB, dir string) (string, int) {
	t.Helper()
	ds := testDataset(t)
	path := filepath.Join(dir, "updates.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := mrt.WriteUpdates(f, ds, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n < 40 {
		t.Fatalf("fixture too small: %d records", n)
	}
	return path, n
}

// bootstrapDataset replays the whole update stream back into a dataset,
// so the bootstrap universe uses the same (CIDR) prefix naming the
// stream's own batch snapshots will — what a real deployment gets from
// bootstrapping off a RIB/update archive of the same collector.
func bootstrapDataset(t testing.TB, path string) *dataset.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _, err := mrt.UpdatesToDataset(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// streamCfg builds the canonical test configuration: oneshot file
// source, ~5 batches, bootstrap from the full dataset.
func streamCfg(t testing.TB, dir string, workers int, events *[]Event) (Config, int) {
	t.Helper()
	path, n := writeUpdatesFile(t, dir)
	batch := n / 5
	if batch < 1 {
		batch = 1
	}
	cfg := Config{
		Source:       NewFileSource(path, false, 0),
		StatePath:    filepath.Join(dir, "stream.state"),
		BatchRecords: batch,
		Workers:      workers,
		Bootstrap:    bootstrapDataset(t, path),
		Logf:         t.Logf,
	}
	if events != nil {
		cfg.Observer = func(ev Event) { *events = append(*events, ev) }
	}
	return cfg, n
}

// --- Crash harness -------------------------------------------------------

// crashSentinel is the panic value the crash seams throw; the harness
// recovers it to simulate a process death at an exact point.
type crashSentinel struct {
	point string
	seq   int64
}

// runMaybeCrash runs the streamer, converting a crashSentinel panic into
// crashed=true (any other panic propagates).
func runMaybeCrash(ctx context.Context, s *Streamer) (res *Result, err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSentinel); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	res, err = s.Run(ctx)
	return
}

// tornWriter passes bytes through until failAt, then panics — leaving a
// torn temp file behind exactly as a SIGKILL mid-write would.
type tornWriter struct {
	w      io.Writer
	n      int64
	failAt int64
	seq    int64
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if rest := tw.failAt - tw.n; int64(len(p)) > rest {
		if rest > 0 {
			n, _ := tw.w.Write(p[:rest])
			tw.n += int64(n)
		}
		panic(crashSentinel{point: "torn-write", seq: tw.seq})
	}
	n, err := tw.w.Write(p)
	tw.n += int64(n)
	return n, err
}

// armTornWrite installs a stateWriteWrap that tears the commit of the
// given 1-based commit number at byte failAt (commit 1 is the bootstrap
// batch-0 state when Config.Bootstrap is set). Returns a disarm func.
func armTornWrite(commitNo int, failAt int64) func() {
	count := 0
	stateWriteWrap = func(w io.Writer) io.Writer {
		count++
		if count == commitNo {
			return &tornWriter{w: w, failAt: failAt, seq: int64(commitNo)}
		}
		return w
	}
	return func() { stateWriteWrap = nil }
}

// normState masks the source-descriptor line (it embeds the per-test
// temp dir) so state files from different directories can be compared
// byte-for-byte.
func normState(b []byte) []byte {
	return sourceLineRe.ReplaceAll(b, []byte("source X"))
}

var sourceLineRe = regexp.MustCompile(`(?m)^source .*$`)

func batchEvents(evs []Event) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Type == "batch" {
			out = append(out, ev)
		}
	}
	return out
}

func eventJSON(t *testing.T, ev Event) string {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cleanRun executes an uninterrupted run and returns the final state
// bytes, result and batch events — the reference for every crash
// schedule. The last committed model must RIB-Out match every path of
// the whole stream, so every schedule whose final state equals this
// one's ends in a model exact on all of its training data.
func cleanRun(t *testing.T, workers int) ([]byte, *Result, []Event) {
	t.Helper()
	dir := t.TempDir()
	var evs []Event
	cfg, _ := streamCfg(t, dir, workers, &evs)
	var last *model.Model
	cfg.OnCommit = func(st *State) { last = st.Checkpoint.Model }
	res, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := last.Evaluate(bootstrapDataset(t, filepath.Join(dir, "updates.mrt")))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Summary.Total == 0 || ev.Summary.RIBOut != ev.Summary.Total {
		t.Fatalf("streamed model RIB-Out matches %d of %d training paths", ev.Summary.RIBOut, ev.Summary.Total)
	}
	return st, res, batchEvents(evs)
}

// --- Tests ---------------------------------------------------------------

// TestCleanRunDeterministic pins the base contract: the same stream at
// any worker count produces byte-identical state files, identical
// results and identical batch-event streams.
func TestCleanRunDeterministic(t *testing.T) {
	st1, res1, evs1 := cleanRun(t, 1)
	st4, res4, evs4 := cleanRun(t, 4)
	if !bytes.Equal(normState(st1), normState(st4)) {
		t.Fatalf("state files differ between workers=1 and workers=4")
	}
	if res1.Batches == 0 || res1.Records == 0 {
		t.Fatalf("empty run: %+v", res1)
	}
	r1, r4 := *res1, *res4
	r1.SkipReport, r4.SkipReport = nil, nil
	if r1 != r4 {
		t.Fatalf("results differ:\n  w1: %+v\n  w4: %+v", r1, r4)
	}
	if len(evs1) != len(evs4) {
		t.Fatalf("batch event counts differ: %d vs %d", len(evs1), len(evs4))
	}
	for i := range evs1 {
		if eventJSON(t, evs1[i]) != eventJSON(t, evs4[i]) {
			t.Fatalf("batch event %d differs:\n  w1: %s\n  w4: %s",
				i, eventJSON(t, evs1[i]), eventJSON(t, evs4[i]))
		}
	}
	if res1.Totals.RefinedPrefixes == 0 {
		t.Fatalf("no prefixes refined: %+v", res1.Totals)
	}
}

// TestSeed7StreamCounts replays the seed-7 update stream of a 33-AS
// generated Internet in batches of 32 records and holds its replay and
// refinement counts to exact values: they are deterministic, so a change
// that alters what the loop replays, refines, skips or quarantines fails
// here. It also requires the last committed model to RIB-Out match every
// path of the whole stream.
func TestSeed7StreamCounts(t *testing.T) {
	in, err := gen.Generate(gen.Config{
		Seed:             7,
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
		t.Fatal(err)
	}
	ds, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "updates.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mrt.WriteUpdates(f, ds.Normalize(), 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var last *model.Model
	res, err := New(Config{
		Source:       NewFileSource(path, false, 0),
		StatePath:    filepath.Join(dir, "stream.state"),
		BatchRecords: 32,
		Bootstrap:    bootstrapDataset(t, path),
		OnCommit:     func(st *State) { last = st.Checkpoint.Model },
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The streamed model must still reproduce every record it was trained
	// on, including the prefixes that settled before a later batch's
	// quasi-router duplications.
	ev, err := last.Evaluate(bootstrapDataset(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Summary.Total == 0 || ev.Summary.RIBOut != ev.Summary.Total {
		t.Errorf("streamed model RIB-Out matches %d of %d training paths", ev.Summary.RIBOut, ev.Summary.Total)
	}
	tot := res.Totals
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"records", res.Records, 264},
		{"batches", res.Batches, 9},
		{"changed prefixes", int64(tot.ChangedPrefixes), 33},
		{"refined prefixes", int64(tot.RefinedPrefixes), 33},
		{"iterations", int64(tot.Iterations), 17},
		{"skipped records", int64(tot.SkippedRecords), 0},
		{"quarantined batches", int64(tot.QuarantinedBatch), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestCrashMatrix is the recovery proof: for every fault point and
// worker count, a run killed mid-stream and restarted produces the same
// final state bytes, result counts and batch-event stream as an
// uninterrupted run. "torn-cursor" and "torn-checkpoint" tear the
// atomic state write inside the cursor lines and inside the embedded
// model respectively; the hook points crash the loop itself.
func TestCrashMatrix(t *testing.T) {
	type fault struct {
		name string
		// hook-based crash (point + batch seq), or torn write at a byte
		// offset of a commit.
		point    string
		seq      int64
		tornAt   int64
		tornSeq  int     // 1-based commit number to tear
		loseSeqs []int64 // batch events permanently lost (committed, never emitted)
	}
	faults := []fault{
		{name: "mid-batch-1", point: "mid-batch", seq: 1},
		{name: "mid-batch-3", point: "mid-batch", seq: 3},
		{name: "pre-commit-2", point: "pre-commit", seq: 2},
		{name: "post-commit-2", point: "post-commit", seq: 2, loseSeqs: []int64{2}},
		{name: "between-batches-1", point: "between-batches", seq: 1},
		// Commit 1 is the bootstrap batch-0 state; commit k+1 carries
		// batch k. Byte 40 lands inside the cursor lines; -1 resolves to
		// the middle of the file, inside the embedded model section.
		{name: "torn-cursor-b2", tornSeq: 3, tornAt: 40},
		{name: "torn-checkpoint-b2", tornSeq: 3, tornAt: -1},
	}
	for _, workers := range []int{1, 4} {
		wantState, wantRes, wantEvs := cleanRun(t, workers)
		for _, f := range faults {
			f := f
			t.Run(f.name+sfx(workers), func(t *testing.T) {
				dir := t.TempDir()
				var evs []Event
				cfg, _ := streamCfg(t, dir, workers, &evs)

				// Run 1: crash at the scheduled point.
				s := New(cfg)
				if f.point != "" {
					s.crashHook = func(point string, seq int64) {
						if point == f.point && seq == f.seq {
							panic(crashSentinel{point: point, seq: seq})
						}
					}
				} else {
					failAt := f.tornAt
					if failAt < 0 {
						failAt = int64(len(wantState)) / 2
					}
					defer armTornWrite(f.tornSeq, failAt)()
				}
				_, _, crashed := runMaybeCrash(context.Background(), s)
				if !crashed {
					t.Fatalf("fault did not fire")
				}
				stateWriteWrap = nil

				// Run 2: restart the same configuration; it must resume
				// from the committed cursor and finish the stream.
				cfg2, _ := streamCfg(t, dir, workers, &evs)
				cfg2.Source = NewFileSource(filepath.Join(dir, "updates.mrt"), false, 0)
				res, err := New(cfg2).Run(context.Background())
				if err != nil {
					t.Fatalf("restart failed: %v", err)
				}

				gotState, err := os.ReadFile(cfg.StatePath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(normState(gotState), normState(wantState)) {
					t.Fatalf("final state bytes differ from clean run (%d vs %d bytes)",
						len(gotState), len(wantState))
				}
				if res.Batches != wantRes.Batches || res.Records != wantRes.Records ||
					res.LastTS != wantRes.LastTS || res.Totals != wantRes.Totals {
					t.Fatalf("result differs from clean run:\n  got:  %+v\n  want: %+v", *res, *wantRes)
				}

				// Batch events: no duplicates, every emitted event
				// byte-identical to the clean run's, and only the
				// documented commit-to-emit-window losses absent.
				lost := map[int64]bool{}
				for _, seq := range f.loseSeqs {
					lost[seq] = true
				}
				got := batchEvents(evs)
				gi := 0
				for _, want := range wantEvs {
					if lost[want.Seq] {
						continue
					}
					if gi >= len(got) {
						t.Fatalf("batch event seq %d missing", want.Seq)
					}
					if eventJSON(t, got[gi]) != eventJSON(t, want) {
						t.Fatalf("batch event seq %d differs:\n  got:  %s\n  want: %s",
							want.Seq, eventJSON(t, got[gi]), eventJSON(t, want))
					}
					gi++
				}
				if gi != len(got) {
					t.Fatalf("%d extra/duplicate batch events", len(got)-gi)
				}
			})
		}
	}
}

func sfx(workers int) string {
	if workers == 1 {
		return "/w1"
	}
	return "/w4"
}

// TestDoubleCrash stacks two crashes (one torn commit, one post-commit
// kill) before the run completes; exactly-once must still hold.
func TestDoubleCrash(t *testing.T) {
	wantState, wantRes, _ := cleanRun(t, 1)
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)

	s := New(cfg)
	defer armTornWrite(2, 100)() // tear batch 1's commit
	_, _, crashed := runMaybeCrash(context.Background(), s)
	if !crashed {
		t.Fatal("torn write did not fire")
	}
	stateWriteWrap = nil

	cfg2, _ := streamCfg(t, dir, 1, nil)
	s2 := New(cfg2)
	s2.crashHook = func(point string, seq int64) {
		if point == "post-commit" && seq == 2 {
			panic(crashSentinel{point: point, seq: seq})
		}
	}
	_, _, crashed = runMaybeCrash(context.Background(), s2)
	if !crashed {
		t.Fatal("post-commit crash did not fire")
	}

	cfg3, _ := streamCfg(t, dir, 1, nil)
	res, err := New(cfg3).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("restart did not report recovery")
	}
	gotState, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normState(gotState), normState(wantState)) {
		t.Fatal("final state differs from clean run after two crashes")
	}
	if res.Totals != wantRes.Totals {
		t.Fatalf("totals differ: got %+v want %+v", res.Totals, wantRes.Totals)
	}
}

// TestBootstrapFromFirstBatch runs without a bootstrap dataset: the
// first batch defines the model, and crash recovery still reproduces
// the clean run byte-for-byte.
func TestBootstrapFromFirstBatch(t *testing.T) {
	run := func(crash bool) ([]byte, *Result) {
		dir := t.TempDir()
		var evs []Event
		cfg, _ := streamCfg(t, dir, 2, &evs)
		cfg.Bootstrap = nil
		if crash {
			s := New(cfg)
			s.crashHook = func(point string, seq int64) {
				if point == "pre-commit" && seq == 1 {
					panic(crashSentinel{point: point, seq: seq})
				}
			}
			_, _, crashed := runMaybeCrash(context.Background(), s)
			if !crashed {
				t.Fatal("crash did not fire")
			}
			cfg, _ = streamCfg(t, dir, 2, &evs)
			cfg.Bootstrap = nil
		}
		res, err := New(cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		be := batchEvents(evs)
		if len(be) == 0 || !be[0].Bootstrap {
			t.Fatalf("first batch not marked bootstrap: %+v", be)
		}
		st, err := os.ReadFile(cfg.StatePath)
		if err != nil {
			t.Fatal(err)
		}
		return st, res
	}
	cleanState, cleanRes := run(false)
	crashState, crashRes := run(true)
	if !bytes.Equal(normState(cleanState), normState(crashState)) {
		t.Fatal("bootstrap-from-batch state differs after crash+restart")
	}
	if cleanRes.Totals != crashRes.Totals {
		t.Fatalf("totals differ: %+v vs %+v", cleanRes.Totals, crashRes.Totals)
	}
}

// poisonRun runs the fixture stream with the refinement of batch poison
// failing, optionally without a bootstrap dataset and with a crash at
// between-batches crashAt (0 = none) followed by a restart. It returns
// the result, the final state bytes, the poisoned batch's event (nil
// when it was not emitted) and how many times that batch was refined.
func poisonRun(t *testing.T, bootstrap bool, poison, crashAt int64) (*Result, []byte, *Event, int) {
	t.Helper()
	dir := t.TempDir()
	var evs []Event
	calls := 0
	start := func() *Streamer {
		cfg, _ := streamCfg(t, dir, 1, &evs)
		if !bootstrap {
			cfg.Bootstrap = nil
		}
		s := New(cfg)
		s.forcePoison = func(seq int64) bool {
			if seq == poison {
				calls++
				return true
			}
			return false
		}
		return s
	}
	s := start()
	if crashAt > 0 {
		s.crashHook = func(point string, seq int64) {
			if point == "between-batches" && seq == crashAt {
				panic(crashSentinel{point: point, seq: seq})
			}
		}
		if _, _, crashed := runMaybeCrash(context.Background(), s); !crashed {
			t.Fatal("crash did not fire")
		}
		s = start()
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.ReadFile(s.cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	var pev *Event
	for i := range evs {
		if evs[i].Type == "batch" && evs[i].Seq == poison {
			pev = &evs[i]
		}
	}
	return res, st, pev, calls
}

// TestPoisonQuarantine injects one refinement failure: the batch is
// refined once and quarantined at once — the model rolls back, its
// records advance the cursor, its refinement is skipped — and the
// stream completes, deterministically across a crash right after the
// quarantined commit. Without a bootstrap dataset the poisoned batch is
// the bootstrap batch, and rollback rebuilds the initial model from its
// own snapshot.
func TestPoisonQuarantine(t *testing.T) {
	_, wantRes, _ := cleanRun(t, 1)
	for _, c := range []struct {
		name      string
		bootstrap bool
		poison    int64
	}{
		{"bootstrap-dataset", true, 2},
		{"bootstrap-batch", false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, st, ev, calls := poisonRun(t, c.bootstrap, c.poison, 0)
			if calls != 1 {
				t.Fatalf("poisoned batch refined %d times, want exactly 1", calls)
			}
			if ev == nil || !ev.Quarantined || ev.Retried || ev.Bootstrap == c.bootstrap {
				t.Fatalf("poisoned batch not quarantined without retry: %+v", ev)
			}
			if ev.Err == "" || ev.Iterations != 0 {
				t.Fatalf("quarantined event malformed: %+v", ev)
			}
			if res.Totals.QuarantinedBatch != 1 || res.Batches != wantRes.Batches || res.Records != wantRes.Records {
				t.Fatalf("stream did not complete with one quarantined batch: %+v, want %d batches and %d records",
					*res, wantRes.Batches, wantRes.Records)
			}
			// The poisoned batch commits before the crash, so the
			// restart never refines it again.
			resC, stC, _, callsC := poisonRun(t, c.bootstrap, c.poison, c.poison)
			if callsC != 1 {
				t.Fatalf("crash/restart refined the poisoned batch %d times, want 1", callsC)
			}
			if !bytes.Equal(normState(st), normState(stC)) {
				t.Fatal("quarantine run state differs across crash/restart")
			}
			if res.Totals != resC.Totals {
				t.Fatalf("quarantine totals differ: %+v vs %+v", res.Totals, resC.Totals)
			}
		})
	}
}

// TestResumeValidation: a resume with changed batch parameters, a
// different source, or a source that shrank or changed under the cursor
// is refused with a diagnostic instead of silently diverging.
func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	cfg, n := streamCfg(t, dir, 1, nil)
	if _, err := New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// fresh rebuilds the configuration WITHOUT regenerating the updates
	// file, so the source mutations below survive.
	path := filepath.Join(dir, "updates.mrt")
	fresh := func() Config {
		return Config{
			Source:       NewFileSource(path, false, 0),
			StatePath:    cfg.StatePath,
			BatchRecords: cfg.BatchRecords,
			MinAge:       cfg.MinAge,
			Workers:      1,
			Bootstrap:    cfg.Bootstrap,
			Logf:         t.Logf,
		}
	}

	c := fresh()
	c.BatchRecords++
	if _, err := New(c).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "-batch") {
		t.Fatalf("batch-records mismatch not refused: %v", err)
	}

	c = fresh()
	c.MinAge = 99
	if _, err := New(c).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "-min-age") {
		t.Fatalf("min-age mismatch not refused: %v", err)
	}

	c = fresh()
	other := filepath.Join(dir, "other.mrt")
	if err := os.Link(filepath.Join(dir, "updates.mrt"), other); err != nil {
		t.Fatal(err)
	}
	c.Source = NewFileSource(other, false, 0)
	if _, err := New(c).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "source") {
		t.Fatalf("source mismatch not refused: %v", err)
	}

	// Truncate the source below the cursor: recovery replay must fail.
	raw, err := os.ReadFile(filepath.Join(dir, "updates.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "updates.mrt"), raw[:len(raw)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	c = fresh()
	if _, err := New(c).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "recovery replay") {
		t.Fatalf("short source not refused: %v", err)
	}
	_ = n

	// Rewrite the source with different timestamps (same record count):
	// the committed last-ts no longer matches the replay.
	f, err := os.Create(filepath.Join(dir, "updates.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mrt.WriteUpdates(f, testDataset(t), 5000, 2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c = fresh()
	if _, err := New(c).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "changed under the cursor") {
		t.Fatalf("content drift not refused: %v", err)
	}
}

// TestInterruptDrain cancels the context mid-stream: the run must
// return a *model.InterruptedError carrying the committed cursor, the
// in-flight batch must not be committed, and a restart must complete
// identically to a clean run.
func TestInterruptDrain(t *testing.T) {
	wantState, wantRes, _ := cleanRun(t, 1)
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)

	ctx, cancel := context.WithCancel(context.Background())
	s := New(cfg)
	s.crashHook = func(point string, seq int64) {
		if point == "mid-batch" && seq == 2 {
			cancel()
		}
	}
	_, err := s.Run(ctx)
	var ierr *model.InterruptedError
	if err == nil || !asInterrupted(err, &ierr) {
		t.Fatalf("expected InterruptedError, got %v", err)
	}
	if ierr.Op != "stream" {
		t.Fatalf("Op = %q, want stream", ierr.Op)
	}
	if ierr.Iterations != 1 {
		t.Fatalf("interrupted after %d committed batches, want 1", ierr.Iterations)
	}
	if ierr.Checkpoint != cfg.StatePath {
		t.Fatalf("Checkpoint = %q", ierr.Checkpoint)
	}
	st, err := LoadStateFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cursor.Batches != 1 {
		t.Fatalf("in-flight batch was committed: cursor at batch %d", st.Cursor.Batches)
	}

	cfg2, _ := streamCfg(t, dir, 1, nil)
	res, rerr := New(cfg2).Run(context.Background())
	if rerr != nil {
		t.Fatal(rerr)
	}
	gotState, ferr := os.ReadFile(cfg.StatePath)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if !bytes.Equal(normState(gotState), normState(wantState)) {
		t.Fatal("state after interrupt+resume differs from clean run")
	}
	if res.Totals != wantRes.Totals {
		t.Fatalf("totals differ: %+v vs %+v", res.Totals, wantRes.Totals)
	}
}

func asInterrupted(err error, out **model.InterruptedError) bool {
	for e := err; e != nil; {
		if ie, ok := e.(*model.InterruptedError); ok {
			*out = ie
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestMissingSourceFails pins the operational-vs-framing error split: a
// source that cannot be opened is a run failure, not an empty stream
// leniently ended at record zero.
func TestMissingSourceFails(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Source:    NewFileSource(filepath.Join(dir, "nope.mrt"), false, 0),
		StatePath: filepath.Join(dir, "stream.state"),
	}
	_, err := New(cfg).Run(context.Background())
	if err == nil {
		t.Fatal("missing source file ended the stream cleanly")
	}
	if !strings.Contains(err.Error(), "reading source") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, serr := os.Stat(cfg.StatePath); !os.IsNotExist(serr) {
		t.Fatal("failed run left a state file")
	}
}

// TestMaxBatches stops the run at the requested committed batch count
// and a follow-up run picks up exactly where it left off.
func TestMaxBatches(t *testing.T) {
	wantState, wantRes, _ := cleanRun(t, 1)
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)
	cfg.MaxBatches = 2
	res, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 {
		t.Fatalf("stopped at batch %d, want 2", res.Batches)
	}
	cfg2, _ := streamCfg(t, dir, 1, nil)
	res2, err := New(cfg2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Recovered {
		t.Fatal("second run did not resume")
	}
	gotState, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normState(gotState), normState(wantState)) {
		t.Fatal("staged run state differs from clean run")
	}
	if res2.Totals != wantRes.Totals {
		t.Fatalf("totals differ: %+v vs %+v", res2.Totals, wantRes.Totals)
	}
}

// TestBakFallback corrupts the primary state file: LoadStateFile must
// fall back to the .bak (previous commit) and the resumed run must
// still converge to the clean final state — a .bak rewind re-runs at
// most one batch, it never double-applies one.
func TestBakFallback(t *testing.T) {
	wantState, wantRes, _ := cleanRun(t, 1)
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)
	cfg.MaxBatches = 2
	if _, err := New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary mid-file (torn tail, header intact).
	raw, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.StatePath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStateFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != cfg.StatePath+".bak" {
		t.Fatalf("loaded from %q, want .bak fallback", st.Source)
	}
	if st.Cursor.Batches != 1 {
		t.Fatalf(".bak holds batch %d, want previous commit 1", st.Cursor.Batches)
	}
	cfg2, _ := streamCfg(t, dir, 1, nil)
	res, err := New(cfg2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotState, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normState(gotState), normState(wantState)) {
		t.Fatal("state after .bak rewind differs from clean run")
	}
	if res.Totals != wantRes.Totals {
		t.Fatalf("totals differ: %+v vs %+v", res.Totals, wantRes.Totals)
	}
}

// TestServeHandoff boots a prediction server directly off a stream
// state file: model.LoadCheckpoint reads the embedded checkpoint
// through the cursor header, so `asmodeld -checkpoint stream.state`
// serves the streamed model (Iteration = committed batch sequence).
func TestServeHandoff(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)
	res, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := model.LoadCheckpointFile(cfg.StatePath)
	if err != nil {
		t.Fatalf("checkpoint load from stream state: %v", err)
	}
	if int64(cp.Iteration) != res.Batches {
		t.Fatalf("checkpoint iteration %d, want batch seq %d", cp.Iteration, res.Batches)
	}

	ready := make(chan string, 1)
	srv := serve.New(serve.Config{
		CheckpointPath: cfg.StatePath,
		Addr:           "127.0.0.1:0",
		OnReady:        func(addr string) { ready <- addr },
		Logf:           t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	snap := srv.Snapshot()
	if int64(snap.Iteration) != res.Batches {
		t.Fatalf("served iteration %d, want %d", snap.Iteration, res.Batches)
	}
	if snap.Model().Universe.Len() == 0 {
		t.Fatal("served model has an empty universe")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStateRoundtrip pins the state serialization: write → load →
// write reproduces identical bytes, and truncation at any directive
// boundary is detected.
func TestStateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)
	cfg.MaxBatches = 1
	if _, err := New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadState(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("state roundtrip not byte-identical")
	}
	for _, cut := range []int{0, 10, len(raw) / 2, len(raw) - 2} {
		if _, err := LoadState(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestResumeReservedTotal resumes from a cursor whose reserved 16th
// totals value is non-zero — what earlier versions wrote after a batch
// retried under an escalated budget. The value is read and discarded,
// and the run finishes with the clean run's state bytes.
func TestResumeReservedTotal(t *testing.T) {
	wantState, _, _ := cleanRun(t, 1)
	dir := t.TempDir()
	cfg, _ := streamCfg(t, dir, 1, nil)
	cfg.MaxBatches = 2
	if _, err := New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	old := reservedTotalRe.ReplaceAll(raw, []byte("${1} 1"))
	if bytes.Equal(old, raw) {
		t.Fatal("totals line not found")
	}
	if err := os.WriteFile(cfg.StatePath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	// Without the previous commit's backup, only the edited cursor can
	// load: a refusal cannot fall back to it.
	if err := os.Remove(cfg.StatePath + ".bak"); err != nil {
		t.Fatal(err)
	}
	cfg.MaxBatches = 0
	res, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("resume from a cursor with a non-zero reserved total: %v", err)
	}
	if !res.Recovered {
		t.Fatal("run did not resume from the cursor")
	}
	got, err := os.ReadFile(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normState(got), normState(wantState)) {
		t.Fatal("final state differs from the clean run")
	}
}

var reservedTotalRe = regexp.MustCompile(`(?m)^(totals(?: \d+){15}) 0$`)

// --- Folded leading batches ----------------------------------------------

// writeJunkThenUpdates writes `junk` non-MESSAGE BGP4MP records (state
// changes, as real update feeds open with) followed by the fixture
// update stream. The replayer consumes but ignores the junk records, so
// a fresh run without a bootstrap dataset cannot build a model from the
// leading batches and must fold them forward.
func writeJunkThenUpdates(t testing.TB, dir string, junk int) (string, int) {
	t.Helper()
	path := filepath.Join(dir, "updates.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := mrt.NewWriter(f)
	for i := 0; i < junk; i++ {
		// Subtype 0 = BGP4MP_STATE_CHANGE; Replayer.Apply ignores it.
		if err := w.WriteRecord(uint32(900+i), mrt.TypeBGP4MP, 0, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := mrt.WriteUpdates(f, testDataset(t), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, junk + n
}

// TestFoldedBatchCrashMatrix: a stream that begins with enough
// non-update records to fill whole batches. Without -bootstrap those
// batches cannot build a model, so they fold into the first real one;
// the absorbing commit must account every folded record exactly once —
// cursor, totals and batch event — and recovery from a crash at any
// scheduled point must still be byte-identical to an uninterrupted run.
func TestFoldedBatchCrashMatrix(t *testing.T) {
	const batch = 16
	const junk = 2 * batch
	run := func(point string, seq int64) ([]byte, *Result, []Event, int) {
		dir := t.TempDir()
		path, total := writeJunkThenUpdates(t, dir, junk)
		var evs []Event
		mkCfg := func() Config {
			return Config{
				Source:       NewFileSource(path, false, 0),
				StatePath:    filepath.Join(dir, "stream.state"),
				BatchRecords: batch,
				Workers:      2,
				Logf:         t.Logf,
				Observer:     func(ev Event) { evs = append(evs, ev) },
			}
		}
		if point != "" {
			s := New(mkCfg())
			s.crashHook = func(p string, q int64) {
				if p == point && q == seq {
					panic(crashSentinel{point: p, seq: q})
				}
			}
			_, _, crashed := runMaybeCrash(context.Background(), s)
			if !crashed {
				t.Fatalf("fault %s/%d did not fire", point, seq)
			}
		}
		res, err := New(mkCfg()).Run(context.Background())
		if err != nil {
			t.Fatalf("%s/%d: %v", point, seq, err)
		}
		st, err := os.ReadFile(filepath.Join(dir, "stream.state"))
		if err != nil {
			t.Fatal(err)
		}
		return st, res, batchEvents(evs), total
	}

	wantState, wantRes, wantEvs, total := run("", 0)
	if wantRes.Records != int64(total) {
		t.Fatalf("clean run committed %d of %d records", wantRes.Records, total)
	}
	if len(wantEvs) == 0 || wantEvs[0].Records != junk+batch {
		t.Fatalf("first batch should absorb the %d folded junk records: %+v", junk, wantEvs[0])
	}
	if wantEvs[0].Updates != batch || wantEvs[0].Announces != batch {
		t.Fatalf("folded records' replay accounting lost: %+v", wantEvs[0])
	}
	if !wantEvs[0].Bootstrap || wantEvs[0].Seq != 1 || wantEvs[0].CursorRecords != int64(junk+batch) {
		t.Fatalf("first batch malformed: %+v", wantEvs[0])
	}

	faults := []struct {
		point string
		seq   int64
	}{
		{"mid-batch", 1},   // during the junk prefix, nothing committed yet
		{"pre-commit", 1},  // after the folds, before the absorbing commit
		{"post-commit", 1}, // absorbing commit landed, baselines just reset
		{"between-batches", 1},
		{"pre-commit", 2},
	}
	for _, f := range faults {
		gotState, gotRes, _, _ := run(f.point, f.seq)
		if !bytes.Equal(normState(gotState), normState(wantState)) {
			t.Errorf("%s/%d: final state differs from clean run", f.point, f.seq)
		}
		if gotRes.Records != wantRes.Records || gotRes.Batches != wantRes.Batches ||
			gotRes.LastTS != wantRes.LastTS || gotRes.Totals != wantRes.Totals {
			t.Errorf("%s/%d: result differs:\n  got:  %+v\n  want: %+v", f.point, f.seq, *gotRes, *wantRes)
		}
	}
}

// --- -min-age age-in ------------------------------------------------------

// ageInStream writes a hand-timed single-peer update stream: P1
// (10.1.0.0/16) is announced once at ts 1000 and never touched again;
// two later waves of filler prefixes advance the stream clock. With
// -min-age 20 and -batch 4 the batches snapshot as:
//
//	batch 1 (ref 1007): all four prefixes unstable, delta empty
//	batch 2 (ref 1053): P1 aged in (stable at 1020) and is refined now
//	batch 3 (ref 1103): the batch-2 fillers aged in and are refined
//
// leaving the batch-3 fillers (stable at 1120..1123) pending in the
// final cursor.
func ageInStream(t testing.TB, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "updates.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := mrt.NewWriter(f)
	local := netip.MustParseAddr("10.253.0.1")
	peer := netip.MustParseAddr("10.254.0.0")
	ann := func(ts uint32, nth int) {
		u := &mrt.Update{
			Attrs: &mrt.PathAttrs{
				Origin:   bgp.OriginIGP,
				Segments: mrt.SequencePath(bgp.Path{65001, bgp.ASN(100 + nth)}),
				NextHop:  peer,
			},
			NLRI: []netip.Prefix{netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", 1+nth))},
		}
		if err := w.WriteBGP4MPUpdate(ts, 65001, 65000, peer, local, u); err != nil {
			t.Fatal(err)
		}
	}
	ann(1000, 0) // P1, announced exactly once
	for i, ts := range []uint32{1005, 1006, 1007} {
		ann(ts, 1+i)
	}
	for i, ts := range []uint32{1050, 1051, 1052, 1053} {
		ann(ts, 1+i)
	}
	for i, ts := range []uint32{1100, 1101, 1102, 1103} {
		ann(ts, 5+i)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMinAgeAgeIn pins the -min-age liveness contract: a quiet prefix
// whose routes were too young at its batch's snapshot is kept pending
// (in the cursor, so crashes preserve it) and re-refined in the first
// batch after the stream passes its stability time — instead of being
// starved out of the model forever.
func TestMinAgeAgeIn(t *testing.T) {
	run := func(point string, seq int64) ([]byte, *Result, []Event) {
		dir := t.TempDir()
		path := ageInStream(t, dir)
		var evs []Event
		mkCfg := func() Config {
			return Config{
				Source:       NewFileSource(path, false, 0),
				StatePath:    filepath.Join(dir, "stream.state"),
				BatchRecords: 4,
				MinAge:       20,
				Workers:      1,
				Bootstrap:    bootstrapDataset(t, path),
				Logf:         t.Logf,
				Observer:     func(ev Event) { evs = append(evs, ev) },
			}
		}
		if point != "" {
			s := New(mkCfg())
			s.crashHook = func(p string, q int64) {
				if p == point && q == seq {
					panic(crashSentinel{point: p, seq: q})
				}
			}
			_, _, crashed := runMaybeCrash(context.Background(), s)
			if !crashed {
				t.Fatalf("fault %s/%d did not fire", point, seq)
			}
		}
		res, err := New(mkCfg()).Run(context.Background())
		if err != nil {
			t.Fatalf("%s/%d: %v", point, seq, err)
		}
		st, err := os.ReadFile(filepath.Join(dir, "stream.state"))
		if err != nil {
			t.Fatal(err)
		}
		return st, res, batchEvents(evs)
	}

	wantState, wantRes, wantEvs := run("", 0)
	if len(wantEvs) != 3 {
		t.Fatalf("want 3 batches, got %d: %+v", len(wantEvs), wantEvs)
	}
	for i, want := range []struct{ changed, refined int }{{4, 0}, {5, 1}, {8, 4}} {
		if wantEvs[i].Changed != want.changed || wantEvs[i].Refined != want.refined {
			t.Errorf("batch %d: changed=%d refined=%d, want %d/%d (aged-in prefixes must be re-refined)",
				i+1, wantEvs[i].Changed, wantEvs[i].Refined, want.changed, want.refined)
		}
	}

	// The final cursor carries the still-pending batch-3 fillers, and
	// the unstable lines survive a state round-trip byte-for-byte.
	st, err := LoadState(bytes.NewReader(wantState))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cursor.Unstable) != 4 {
		t.Fatalf("final cursor pending-unstable = %+v, want 4 entries", st.Cursor.Unstable)
	}
	for i, u := range st.Cursor.Unstable {
		if want := int64(1120 + i); u.StableAt != want {
			t.Errorf("unstable[%d] = %+v, want stable-at %d", i, u, want)
		}
	}
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantState) {
		t.Fatal("state with unstable entries does not round-trip byte-identically")
	}

	// Crash schedules: the pending set rides in the cursor, so recovery
	// re-includes aged-in prefixes at exactly the batch a clean run does.
	for _, f := range []struct {
		point string
		seq   int64
	}{{"between-batches", 1}, {"pre-commit", 2}, {"post-commit", 2}} {
		gotState, gotRes, _ := run(f.point, f.seq)
		if !bytes.Equal(normState(gotState), normState(wantState)) {
			t.Errorf("%s/%d: final state differs from clean run", f.point, f.seq)
		}
		if gotRes.Totals != wantRes.Totals {
			t.Errorf("%s/%d: totals differ:\n  got:  %+v\n  want: %+v", f.point, f.seq, gotRes.Totals, wantRes.Totals)
		}
	}
}
