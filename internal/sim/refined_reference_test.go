package sim_test

import (
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/model"
	"asmodel/internal/sim"
	"asmodel/internal/topology"
)

// TestRunMatchesReferenceOnRefinedModel runs the reference propagator on
// every prefix of a refined model, whose export filters, MED rules and
// duplicated quasi-routers are what Run meets in practice, and requires
// every router's best route to be the one Run converges to.
func TestRunMatchesReferenceOnRefinedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and refines an Internet")
	}
	in, err := gen.Generate(gen.Config{
		Seed:             7,
		NumTier1:         4,
		NumTier2:         12,
		NumTier3:         25,
		NumStub:          40,
		RoutersTier1:     3,
		RoutersTier2:     2,
		RoutersTier3:     2,
		MultiHomeProb:    0.6,
		Tier2PeerProb:    0.2,
		Tier3PeerProb:    0.05,
		ParallelLinkProb: 0.4,
		WeirdPolicyFrac:  0.08,
		NumVantageASes:   16,
		MaxVantagePerAS:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	m, err := model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Refine(ds, model.RefineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuasiRoutersAdded == 0 || res.FiltersAdded == 0 || res.MEDRules == 0 {
		t.Fatalf("refinement left no duplications, filters or MED rules to test: %+v", res)
	}
	for p := 0; p < m.Universe.Len(); p++ {
		prefix := bgp.PrefixID(p)
		var origins []bgp.RouterID
		for _, asn := range m.Universe.Origins(prefix) {
			for _, q := range m.QuasiRouters(asn) {
				origins = append(origins, q.ID)
			}
		}
		if err := m.RunPrefix(prefix); err != nil {
			t.Fatalf("prefix %s: %v", m.Universe.Name(prefix), err)
		}
		want, ok := sim.ReferencePropagate(m.Net, prefix, origins)
		if !ok {
			t.Fatalf("prefix %s: reference did not settle", m.Universe.Name(prefix))
		}
		for i, r := range m.Net.Routers() {
			got, w := r.Best(), want[i]
			switch {
			case got == nil && w == nil:
			case got == nil || w == nil:
				t.Fatalf("prefix %s router %s: best %v, reference %v", m.Universe.Name(prefix), r.ID, got, w)
			case !got.Path.Equal(w.Path) || got.Peer != w.Peer || got.MED != w.MED:
				t.Fatalf("prefix %s router %s: best [%s] MED %d from %s, reference [%s] MED %d from %s",
					m.Universe.Name(prefix), r.ID, got.Path, got.MED, got.Peer, w.Path, w.MED, w.Peer)
			}
		}
	}
}
