package gen

import (
	"errors"
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/relation"
	"asmodel/internal/sim"
	"asmodel/internal/topology"
)

func smallConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		NumTier1:         4,
		NumTier2:         10,
		NumTier3:         20,
		NumStub:          30,
		RoutersTier1:     3,
		RoutersTier2:     2,
		RoutersTier3:     2,
		MultiHomeProb:    0.6,
		Tier2PeerProb:    0.2,
		Tier3PeerProb:    0.05,
		ParallelLinkProb: 0.4,
		WeirdPolicyFrac:  0.1,
		NumVantageASes:   12,
		MaxVantagePerAS:  2,
	}
}

func TestValidate(t *testing.T) {
	good := smallConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NumTier1 = 1 },
		func(c *Config) { c.NumTier2 = 0 },
		func(c *Config) { c.RoutersTier1 = 0 },
		func(c *Config) { c.MultiHomeProb = 1.5 },
		func(c *Config) { c.WeirdPolicyFrac = -0.1 },
		func(c *Config) { c.NumVantageASes = 0 },
		func(c *Config) { c.MaxVantagePerAS = 0 },
	}
	for i, mutate := range cases {
		c := smallConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Generate(Config{}); err == nil {
		t.Error("Generate with zero config should fail validation")
	}
}

func TestGenerateStructure(t *testing.T) {
	in, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	wantASes := 4 + 10 + 20 + 30
	if got := len(in.ASNs()); got != wantASes {
		t.Fatalf("ASes=%d want %d", got, wantASes)
	}
	if in.NumPrefixes() != wantASes {
		t.Fatalf("prefixes=%d", in.NumPrefixes())
	}
	// Tier-1 clique is fully meshed with Peer relationships.
	for i := 0; i < len(in.Tier1); i++ {
		for j := i + 1; j < len(in.Tier1); j++ {
			if in.RelOf(in.Tier1[i], in.Tier1[j]) != relation.Peer {
				t.Errorf("tier1 %d-%d not peer", in.Tier1[i], in.Tier1[j])
			}
		}
	}
	// Every tier-2 has at least one tier-1 provider.
	for _, t2 := range in.Tier2 {
		found := false
		for _, t1 := range in.Tier1 {
			if in.RelOf(t2, t1) == relation.Customer {
				found = true
			}
		}
		if !found {
			t.Errorf("tier2 AS%d has no tier1 provider", t2)
		}
	}
	// Every stub has at least one provider and RelOf is consistent both ways.
	for _, s := range in.Stubs {
		providers := 0
		for e, r := range in.Rels {
			if e.A == s && r == relation.Customer || e.B == s && r == relation.Provider {
				providers++
			}
		}
		if providers == 0 {
			t.Errorf("stub AS%d has no provider", s)
		}
	}
	if len(in.VantagePoints()) == 0 {
		t.Fatal("no vantage points")
	}
	if in.RelOf(1, 2) != relation.Unknown {
		t.Error("unknown pair should be Unknown")
	}
}

func TestRunAllProducesValidDiverseData(t *testing.T) {
	in, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	for i := range ds.Records {
		if err := ds.Records[i].Valid(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
	}
	ds.Normalize()

	// Route diversity must exist: some (origin, obs) pair with >1 path.
	diverse := 0
	for _, n := range ds.DistinctPathsPerPair() {
		if n > 1 {
			diverse++
		}
	}
	if diverse == 0 {
		t.Error("generated Internet shows no route diversity — hot potato / multi-link machinery broken")
	}

	// Some AS must receive >= 2 distinct paths for some prefix (Table 1
	// precondition).
	maxDiv := ds.MaxReceivedDiversity()
	best := 0
	for _, v := range maxDiv {
		if v > best {
			best = v
		}
	}
	if best < 2 {
		t.Errorf("max received diversity = %d, want >= 2", best)
	}

	// The tier-1 clique must be discoverable from the data.
	g := topology.FromDataset(ds)
	clique, err := g.Tier1Clique(in.Tier1[:2])
	if err != nil {
		t.Fatalf("tier1 clique: %v", err)
	}
	if len(clique) < len(in.Tier1) {
		t.Errorf("clique=%v smaller than generated tier1 %v", clique, in.Tier1)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	dsA, err := a.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	dsB, err := b.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if dsA.Len() != dsB.Len() {
		t.Fatalf("lengths differ: %d vs %d", dsA.Len(), dsB.Len())
	}
	for i := range dsA.Records {
		ra, rb := dsA.Records[i], dsB.Records[i]
		if ra.Obs != rb.Obs || ra.Prefix != rb.Prefix || !ra.Path.Equal(rb.Path) {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestWeirdPoliciesApplied(t *testing.T) {
	cfg := smallConfig(3)
	cfg.WeirdPolicyFrac = 0.2
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Weird) == 0 {
		t.Fatal("no weird policies applied despite frac 0.2")
	}
	if _, err := in.RunAll(); err != nil {
		t.Fatal(err)
	}
	if in.QuirksReverted > len(in.Weird)+in.QuirksReverted {
		t.Error("revert accounting broken")
	}
}

func TestInferenceAccuracyOnGroundTruth(t *testing.T) {
	// The Gao-style inference should classify a solid majority of
	// customer-provider edges correctly on clean synthetic data (it need
	// not be perfect — the paper's point is that this baseline is weak).
	cfg := smallConfig(4)
	cfg.WeirdPolicyFrac = 0 // clean data for this check
	cfg.NumVantageASes = 20
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	inf := relation.Infer(ds, in.Tier1)

	seen, correct := 0, 0
	for e, want := range in.Rels {
		got := inf.Rel(e.A, e.B)
		if got == relation.Unknown {
			continue // edge not observed from the vantage points
		}
		if want == relation.Customer || want == relation.Provider {
			seen++
			if got == want {
				correct++
			}
		}
	}
	if seen == 0 {
		t.Fatal("no customer-provider edges observed")
	}
	frac := float64(correct) / float64(seen)
	if frac < 0.7 {
		t.Errorf("c2p inference accuracy %.2f (%d/%d), want >= 0.7", frac, correct, seen)
	}
}

func TestRunOne(t *testing.T) {
	in, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunOne(0); err != nil {
		t.Fatal(err)
	}
	if got := in.RS.Net.Prefix(); got != 0 {
		t.Errorf("prefix=%d", got)
	}
	if in.PrefixOrigin(0) != in.ASNs()[0] {
		t.Errorf("PrefixOrigin(0)=%d", in.PrefixOrigin(0))
	}
	if in.PrefixName(0) != dataset.SyntheticPrefix(in.ASNs()[0]) {
		t.Errorf("PrefixName(0)=%s", in.PrefixName(0))
	}
	checkBestEveryPrefix(t, in)
}

// checkBestEveryPrefix runs every prefix of the ground truth — iBGP with
// hot-potato costs, relationship hooks and weird policies — and checks
// that each router's incrementally maintained best route is the
// decision-process winner, diverging prefixes included (a cut-off run
// must leave the state consistent too).
func checkBestEveryPrefix(t *testing.T, in *Internet) {
	t.Helper()
	for p := 0; p < in.NumPrefixes(); p++ {
		if err := in.RunOne(bgp.PrefixID(p)); err != nil && !errors.Is(err, sim.ErrDiverged) {
			t.Fatalf("prefix %d: %v", p, err)
		}
		if err := in.RS.Net.CheckBest(); err != nil {
			t.Fatalf("prefix %d: %v", p, err)
		}
	}
}

func TestParallelLinksExist(t *testing.T) {
	cfg := smallConfig(6)
	cfg.ParallelLinkProb = 0.9
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count eBGP sessions per AS pair; with prob 0.9 and multi-router
	// tiers, some pair must have >= 2 links.
	pairLinks := map[topology.Edge]int{}
	for _, r := range in.RS.Net.Routers() {
		for _, p := range r.Peers() {
			if p.EBGP && r.ID < p.Remote.ID {
				pairLinks[topology.MakeEdge(r.AS, p.Remote.AS)]++
			}
		}
	}
	multi := 0
	for _, n := range pairLinks {
		if n >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no parallel inter-AS links generated")
	}
	_ = bgp.ASN(0)
}

func TestPrefixesPerOrigin(t *testing.T) {
	cfg := smallConfig(9)
	cfg.PrefixesPerOrigin = 3
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumPrefixes() <= len(in.ASNs()) {
		t.Fatalf("prefixes=%d should exceed AS count %d", in.NumPrefixes(), len(in.ASNs()))
	}
	names := map[string]bool{}
	perOrigin := map[bgp.ASN]int{}
	for i := 0; i < in.NumPrefixes(); i++ {
		id := bgp.PrefixID(i)
		name := in.PrefixName(id)
		if names[name] {
			t.Fatalf("duplicate prefix name %q", name)
		}
		names[name] = true
		perOrigin[in.PrefixOrigin(id)]++
	}
	maxP := 0
	for _, n := range perOrigin {
		if n > maxP {
			maxP = n
		}
	}
	if maxP < 2 || maxP > 3 {
		t.Errorf("max prefixes per origin = %d, want in [2,3]", maxP)
	}
	ds, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	// With per-prefix weird policies, some AS-path should now carry more
	// than one prefix AND some origin's prefixes should take different
	// paths from the same vantage point.
	multi := 0
	for _, n := range ds.PrefixesPerPath() {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no AS-path carries multiple prefixes")
	}
	// Negative validation case.
	cfg.PrefixesPerOrigin = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative PrefixesPerOrigin accepted")
	}
}

func TestDisableASLink(t *testing.T) {
	in, err := Generate(smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	// Pick a stub and its provider.
	stub := in.Stubs[0]
	var provider bgp.ASN
	for e, r := range in.Rels {
		if e.A == stub && r == relation.Customer {
			provider = e.B
		}
		if e.B == stub && r == relation.Provider {
			provider = e.A
		}
	}
	if provider == 0 {
		t.Fatal("no provider found")
	}
	n := in.DisableASLink(stub, provider)
	if n == 0 {
		t.Fatal("no sessions disabled")
	}
	if in.EnableASLink(stub, provider) != n {
		t.Fatal("enable count mismatch")
	}
	if in.DisableASLink(9999, provider) != 0 {
		t.Fatal("unknown AS disabled something")
	}
}

func TestObservedPathSet(t *testing.T) {
	in, err := Generate(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunOne(0); err != nil {
		t.Fatal(err)
	}
	sets := in.ObservedPathSet()
	if len(sets) == 0 {
		t.Fatal("no observed paths")
	}
	for asn, set := range sets {
		for p := range set {
			path, err := bgp.ParsePath(p)
			if err != nil {
				t.Fatal(err)
			}
			if first, _ := path.First(); first != asn {
				t.Errorf("path %q not anchored at AS %d", p, asn)
			}
		}
	}
}

func TestRouteReflectorGeneration(t *testing.T) {
	cfg := smallConfig(12)
	cfg.RouteReflectorProb = 1.0 // every multi-router AS uses RR
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rrCount := 0
	for _, asn := range in.ASNs() {
		a := in.RS.AS(asn)
		if a.RouteReflector {
			rrCount++
			if a.NumRouters() < 2 {
				t.Errorf("AS%d is RR with %d routers", asn, a.NumRouters())
			}
		} else if a.NumRouters() >= 2 {
			t.Errorf("AS%d has %d routers but no RR despite prob 1.0", asn, a.NumRouters())
		}
	}
	if rrCount == 0 {
		t.Fatal("no RR ASes generated")
	}
	checkBestEveryPrefix(t, in)
	ds, err := in.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	// Bad probability rejected.
	cfg.RouteReflectorProb = 2
	if err := cfg.Validate(); err == nil {
		t.Error("invalid RR probability accepted")
	}
}
