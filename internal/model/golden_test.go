package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/topology"
)

// The deterministic work of refining the training half (observation-point
// split 0.5, seed 7) of the seed-7 generated Internet at Workers: 1.
// Every value is exact on any host: propagation, refinement and
// serialization are deterministic. A change that moves one of them on
// purpose updates the constant here and says so, with the old and the
// new value, in CHANGES.md.
const (
	goldenSimRuns     = 285
	goldenSimMessages = 166887

	goldenIterations     = 4
	goldenVerifyRounds   = 1
	goldenFiltersAdded   = 129
	goldenFiltersRemoved = 0
	goldenMEDRules       = 268
	goldenLocalPrefRules = 0
	goldenQRsAdded       = 7

	goldenSaveLen    = 21191
	goldenSaveSHA256 = "1ff4a229acc96126361fecb04e381ff2d8d0c7be7a7689bb786dc420a277e6b7"
)

// TestRefineWorkGolden holds the refinement work counts, the action
// counts and the saved model of one fixed refinement to exact values, so
// that an algorithmic change that alters how much work refinement does,
// or what it builds, fails here rather than passing unnoticed. The
// message total is also checked against the sim_messages_delivered_total
// counter, which it must equal: the split converges, so the final
// accounting re-simulates nothing.
func TestRefineWorkGolden(t *testing.T) {
	full := genDataset(t, 7)
	train, _ := full.SplitByObsPoint(0.5, 7)
	m, err := NewInitial(topology.FromDataset(full), dataset.NewUniverse(full))
	if err != nil {
		t.Fatal(err)
	}
	var runs, msgs int
	cfg := RefineConfig{Workers: 1, Observer: func(ev RefineEvent) {
		runs += ev.SimRuns
		msgs += ev.SimMessages
	}}
	msgCounter := obs.GetCounter("sim_messages_delivered_total", "")
	msgsBefore := msgCounter.Value()
	res, err := m.Refine(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("golden split did not converge: %+v", res)
	}
	if delta := msgCounter.Value() - msgsBefore; int64(msgs) != delta {
		t.Errorf("refine events sum to %d messages, sim_messages_delivered_total moved %d", msgs, delta)
	}
	var save bytes.Buffer
	if err := m.Save(&save); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(save.Bytes())
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"sim runs", runs, goldenSimRuns},
		{"sim messages", msgs, goldenSimMessages},
		{"iterations", res.Iterations, goldenIterations},
		{"verify rounds", res.VerifyRounds, goldenVerifyRounds},
		{"filters added", res.FiltersAdded, goldenFiltersAdded},
		{"filters removed", res.FiltersRemoved, goldenFiltersRemoved},
		{"MED rules", res.MEDRules, goldenMEDRules},
		{"local-pref rules", res.LocalPrefRules, goldenLocalPrefRules},
		{"quasi-routers added", res.QuasiRoutersAdded, goldenQRsAdded},
		{"saved model length", save.Len(), goldenSaveLen},
		{"saved model SHA-256", hex.EncodeToString(sum[:]), goldenSaveSHA256},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
