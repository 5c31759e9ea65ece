package model

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/topology"
)

// refineTrace refines the dataset for the given seed with a TraceSink
// observer attached and returns the raw JSONL trace stream.
func refineTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := randomObservations(rng)
	if ds.Len() == 0 {
		return nil
	}
	m, err := NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf)
	cfg := RefineConfig{Observer: func(ev RefineEvent) {
		if err := sink.Emit(ev); err != nil {
			t.Fatalf("emit: %v", err)
		}
	}}
	if _, err := m.Refine(ds, cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRefineTraceDeterministic is the observability contract: two Refine
// runs on the same (dataset, seed) emit byte-identical trace-event
// streams. Trace events therefore must not embed wall-clock time or any
// other run-to-run varying state.
func TestRefineTraceDeterministic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a := refineTrace(t, seed)
		b := refineTrace(t, seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: trace streams differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, a, b)
		}
	}
}

// TestRefineTraceContents checks the shape of the emitted stream: one
// well-formed JSON event per line, per-iteration match fractions that
// respect the cumulative-threshold ordering RIBIn >= Potential >= RIBOut,
// a verify event per sweep, and a final done event that agrees with the
// RefineResult.
func TestRefineTraceContents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randomObservations(rng)
	m, err := NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	var events []RefineEvent
	res, err := m.Refine(ds, RefineConfig{Observer: func(ev RefineEvent) {
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events for a run of %d iterations", len(events), res.Iterations)
	}

	iterations, verifies := 0, 0
	var total RefineActionCounts
	for i, ev := range events {
		switch ev.Type {
		case "iteration":
			iterations++
			if ev.Iteration != iterations {
				t.Errorf("event %d: iteration %d, want %d", i, ev.Iteration, iterations)
			}
			if ev.Requirements == 0 {
				t.Errorf("event %d: no requirements", i)
			}
			if ev.RIBInMatched < ev.PotentialMatched || ev.PotentialMatched < ev.RIBOutMatched {
				t.Errorf("event %d: matches not cumulative: out=%d pot=%d in=%d",
					i, ev.RIBOutMatched, ev.PotentialMatched, ev.RIBInMatched)
			}
			if ev.RIBOutFrac < 0 || ev.RIBInFrac > 1 {
				t.Errorf("event %d: fractions out of range: %+v", i, ev)
			}
			total.add(ev.Actions)
			if total != ev.CumulativeActions {
				t.Errorf("event %d: cumulative actions %+v, sum of deltas %+v", i, ev.CumulativeActions, total)
			}
		case "verify":
			verifies++
			if ev.VerifyRound != verifies {
				t.Errorf("event %d: verify round %d, want %d", i, ev.VerifyRound, verifies)
			}
		case "done":
			if i != len(events)-1 {
				t.Errorf("done event at %d, want last (%d)", i, len(events)-1)
			}
			if ev.Converged != res.Converged {
				t.Errorf("done event converged=%v, result %v", ev.Converged, res.Converged)
			}
		default:
			t.Errorf("event %d: unknown type %q", i, ev.Type)
		}
	}
	if iterations != res.Iterations {
		t.Errorf("%d iteration events, result says %d", iterations, res.Iterations)
	}
	if verifies != res.VerifyRounds {
		t.Errorf("%d verify events, result says %d", verifies, res.VerifyRounds)
	}
	if total.FiltersAdded != res.FiltersAdded || total.MEDRules != res.MEDRules ||
		total.Duplications != res.QuasiRoutersAdded {
		t.Errorf("cumulative actions %+v disagree with result %+v", total, res)
	}
	last := events[len(events)-1]
	if last.RIBOutMatched != last.Requirements && res.Converged {
		t.Errorf("converged but final RIB-Out matched %d/%d", last.RIBOutMatched, last.Requirements)
	}

	// Each event marshals to a single JSON object whose keys include the
	// match fractions and action counts the ISSUE promises downstream
	// consumers.
	b, err := json.Marshal(events[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"type"`, `"iteration"`, `"rib_out_frac"`, `"potential_frac"`, `"rib_in_frac"`, `"actions"`, `"reservations"`, `"filters_added"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("marshaled event missing %s: %s", key, b)
		}
	}
}

// liveActions reads the refine_* edit counters as action counts.
func liveActions() RefineActionCounts {
	return RefineActionCounts{
		FiltersAdded:   int(mFiltersAdd.Value()),
		FiltersRemoved: int(mFiltersDel.Value()),
		MEDRules:       int(mMEDRules.Value()),
		LocalPrefRules: int(mLPRules.Value()),
		Duplications:   int(mQRsAdded.Value()),
	}
}

// TestRefineCountersAreLive: every edit bumps its refine_* counter as it
// is made, so at each "iteration" event the counter deltas equal the
// event's CumulativeActions, and when Refine returns they (plus the
// verify-round and diverged-prefix counters) equal the RefineResult.
func TestRefineCountersAreLive(t *testing.T) {
	var total RefineActionCounts
	for seed := int64(0); seed < 6; seed++ {
		ds := randomObservations(rand.New(rand.NewSource(seed)))
		if ds.Len() == 0 {
			continue
		}
		for _, cfg := range []RefineConfig{{}, {UseLocalPref: true}} {
			m, err := NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
			if err != nil {
				t.Fatal(err)
			}
			before := liveActions()
			verifies, diverged := mVerifies.Value(), mDivergedPx.Value()
			cfg.Observer = func(ev RefineEvent) {
				if ev.Type != "iteration" {
					return
				}
				want := ev.CumulativeActions
				want.Reservations = 0
				if got := liveActions().diff(before); got != want {
					t.Errorf("seed %d local-pref %v iteration %d: counter deltas %+v, cumulative actions %+v",
						seed, cfg.UseLocalPref, ev.Iteration, got, want)
				}
			}
			res, err := m.Refine(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := liveActions().diff(before)
			if want := actionSnapshot(res); got != want {
				t.Errorf("seed %d local-pref %v: counter deltas %+v, result %+v", seed, cfg.UseLocalPref, got, want)
			}
			if n := mVerifies.Value() - verifies; n != int64(res.VerifyRounds) {
				t.Errorf("seed %d local-pref %v: %d verify rounds counted, result has %d", seed, cfg.UseLocalPref, n, res.VerifyRounds)
			}
			if n := mDivergedPx.Value() - diverged; n != int64(res.DivergedPrefixes) {
				t.Errorf("seed %d local-pref %v: %d diverged prefixes counted, result has %d", seed, cfg.UseLocalPref, n, res.DivergedPrefixes)
			}
			total.add(got)
		}
	}
	if total.FiltersAdded == 0 || total.MEDRules == 0 || total.LocalPrefRules == 0 || total.Duplications == 0 {
		t.Fatalf("inputs exercised too few edit kinds: %+v", total)
	}
}
