package bgp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func route(opts ...func(*Route)) *Route {
	r := &Route{LocalPref: DefaultLocalPref, MED: DefaultMED, Path: Path{1, 2}, Peer: MakeRouterID(1, 0), EBGP: true}
	for _, o := range opts {
		o(r)
	}
	return r
}

func withLP(v uint32) func(*Route)   { return func(r *Route) { r.LocalPref = v } }
func withMED(v uint32) func(*Route)  { return func(r *Route) { r.MED = v } }
func withPath(p ...ASN) func(*Route) { return func(r *Route) { r.Path = Path(p) } }
func withPeer(id RouterID) func(*Route) {
	return func(r *Route) { r.Peer = id }
}
func withIGP(c uint32) func(*Route)    { return func(r *Route) { r.IGPCost = c } }
func withEBGP(b bool) func(*Route)     { return func(r *Route) { r.EBGP = b } }
func withOrigin(o Origin) func(*Route) { return func(r *Route) { r.Origin = o } }

func TestDecideEmpty(t *testing.T) {
	best, elim := Decide(QuasiRouterConfig, nil, nil)
	if best != -1 || len(elim) != 0 {
		t.Fatalf("empty: best=%d elim=%v", best, elim)
	}
}

func TestDecideSingle(t *testing.T) {
	r := route()
	best, elim := Decide(QuasiRouterConfig, []*Route{r}, nil)
	if best != 0 || elim[0] != StepNone {
		t.Fatalf("single: best=%d elim=%v", best, elim)
	}
}

func TestDecideLocalPref(t *testing.T) {
	a := route(withLP(200), withPath(1, 2, 3, 4), withPeer(MakeRouterID(9, 9)))
	b := route(withLP(100), withPath(1), withPeer(MakeRouterID(1, 0)))
	best, elim := Decide(QuasiRouterConfig, []*Route{a, b}, nil)
	if best != 0 {
		t.Fatalf("higher local-pref should win despite longer path; best=%d", best)
	}
	if elim[1] != StepLocalPref {
		t.Fatalf("loser should be eliminated at local-pref, got %v", elim[1])
	}
}

func TestDecideASPathLen(t *testing.T) {
	a := route(withPath(1, 2), withPeer(MakeRouterID(9, 9)))
	b := route(withPath(1, 2, 3), withPeer(MakeRouterID(1, 0)))
	best, elim := Decide(QuasiRouterConfig, []*Route{a, b}, nil)
	if best != 0 || elim[1] != StepASPathLen {
		t.Fatalf("best=%d elim=%v", best, elim)
	}
}

func TestDecideMEDAlwaysCompared(t *testing.T) {
	// Same path length, different neighbor ASes: paper §4.6 requires MED to
	// be compared anyway ("even for routes learned from different neighbor
	// ASes").
	a := route(withPath(10, 2), withMED(50), withPeer(MakeRouterID(10, 0)))
	b := route(withPath(20, 2), withMED(10), withPeer(MakeRouterID(1, 0)))
	best, elim := Decide(QuasiRouterConfig, []*Route{a, b}, nil)
	if best != 1 || elim[0] != StepMED {
		t.Fatalf("lower MED should win across neighbors: best=%d elim=%v", best, elim)
	}
}

func TestDecideRouterIDTieBreak(t *testing.T) {
	a := route(withPath(10, 2), withPeer(MakeRouterID(10, 1)))
	b := route(withPath(20, 2), withPeer(MakeRouterID(10, 0)))
	best, elim := Decide(QuasiRouterConfig, []*Route{a, b}, nil)
	if best != 1 {
		t.Fatalf("lowest router ID should win, best=%d", best)
	}
	if elim[0] != StepRouterID {
		t.Fatalf("loser should be a potential RIB-Out match (router-id step), got %v", elim[0])
	}
}

func TestDecideOriginStep(t *testing.T) {
	a := route(withOrigin(OriginIncomplete), withPeer(MakeRouterID(1, 0)))
	b := route(withOrigin(OriginIGP), withPeer(MakeRouterID(2, 0)))
	// Quasi-router config ignores origin: a wins on router ID.
	best, _ := Decide(QuasiRouterConfig, []*Route{a, b}, nil)
	if best != 0 {
		t.Fatalf("quasi config should ignore origin, best=%d", best)
	}
	// Ground-truth config compares origin: b wins.
	best, elim := Decide(GroundTruthConfig, []*Route{a, b}, nil)
	if best != 1 || elim[0] != StepOrigin {
		t.Fatalf("ground truth: best=%d elim=%v", best, elim)
	}
}

func TestDecideEBGPOverIBGP(t *testing.T) {
	a := route(withEBGP(false), withPeer(MakeRouterID(1, 0)))
	b := route(withEBGP(true), withPeer(MakeRouterID(2, 0)))
	best, elim := Decide(GroundTruthConfig, []*Route{a, b}, nil)
	if best != 1 || elim[0] != StepEBGP {
		t.Fatalf("eBGP should beat iBGP: best=%d elim=%v", best, elim)
	}
	// All-iBGP candidate sets skip the step entirely.
	c := route(withEBGP(false), withPeer(MakeRouterID(1, 0)))
	d := route(withEBGP(false), withPeer(MakeRouterID(2, 0)))
	best, elim = Decide(GroundTruthConfig, []*Route{c, d}, nil)
	if best != 0 || elim[1] != StepRouterID {
		t.Fatalf("all-iBGP: best=%d elim=%v", best, elim)
	}
}

func TestDecideIGPCostHotPotato(t *testing.T) {
	a := route(withIGP(30), withPeer(MakeRouterID(1, 0)))
	b := route(withIGP(10), withPeer(MakeRouterID(2, 0)))
	best, elim := Decide(GroundTruthConfig, []*Route{a, b}, nil)
	if best != 1 || elim[0] != StepIGPCost {
		t.Fatalf("hot potato: best=%d elim=%v", best, elim)
	}
	// Quasi-router config ignores IGP cost.
	best, _ = Decide(QuasiRouterConfig, []*Route{a, b}, nil)
	if best != 0 {
		t.Fatalf("quasi config should ignore IGP cost, best=%d", best)
	}
}

func TestDecideStepPrecedence(t *testing.T) {
	// Construct four routes, each designed to lose at a different step.
	best := route(withLP(200), withPath(1, 2), withMED(0), withPeer(MakeRouterID(1, 0)))
	loseLP := route(withLP(100), withPath(1), withMED(0), withPeer(MakeRouterID(0, 1)))
	loseLen := route(withLP(200), withPath(1, 2, 3), withMED(0), withPeer(MakeRouterID(0, 2)))
	loseMED := route(withLP(200), withPath(1, 2), withMED(5), withPeer(MakeRouterID(0, 3)))
	loseID := route(withLP(200), withPath(1, 2), withMED(0), withPeer(MakeRouterID(1, 1)))
	cands := []*Route{loseLP, loseLen, loseMED, loseID, best}
	got, elim := Decide(QuasiRouterConfig, cands, nil)
	if got != 4 {
		t.Fatalf("best=%d", got)
	}
	want := []Step{StepLocalPref, StepASPathLen, StepMED, StepRouterID, StepNone}
	for i, w := range want {
		if elim[i] != w {
			t.Errorf("candidate %d eliminated at %v, want %v", i, elim[i], w)
		}
	}
}

func TestDecideOrderInvariance(t *testing.T) {
	// The winner and elimination steps must not depend on candidate order.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		cands := make([]*Route, n)
		for i := range cands {
			pathLen := 1 + rng.Intn(3)
			p := make(Path, pathLen)
			for j := range p {
				p[j] = ASN(1 + rng.Intn(5))
			}
			cands[i] = &Route{
				LocalPref: uint32(100 + 10*rng.Intn(3)),
				MED:       uint32(rng.Intn(3) * 50),
				Path:      p,
				Peer:      MakeRouterID(ASN(rng.Intn(100)), uint16(i)), // unique peer per candidate
				EBGP:      rng.Intn(2) == 0,
				IGPCost:   uint32(rng.Intn(4)),
				Origin:    Origin(rng.Intn(3)),
			}
		}
		// Ensure unique peers (RIB invariant).
		seen := map[RouterID]bool{}
		unique := true
		for _, c := range cands {
			if seen[c.Peer] {
				unique = false
			}
			seen[c.Peer] = true
		}
		if !unique {
			continue
		}
		base, _ := Decide(GroundTruthConfig, cands, nil)
		baseRoute := cands[base]
		perm := rng.Perm(n)
		shuffled := make([]*Route, n)
		for i, j := range perm {
			shuffled[i] = cands[j]
		}
		got, _ := Decide(GroundTruthConfig, shuffled, nil)
		if shuffled[got] != baseRoute {
			t.Fatalf("trial %d: order changed winner: %v vs %v", trial, shuffled[got], baseRoute)
		}
	}
}

func TestDecideWinnerDominatesProperty(t *testing.T) {
	// Property: the winner, compared pairwise against any other candidate,
	// also wins (the decision process is a total order on distinct peers).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		cands := make([]*Route, n)
		for i := range cands {
			p := make(Path, 1+rng.Intn(4))
			for j := range p {
				p[j] = ASN(1 + rng.Intn(9))
			}
			cands[i] = &Route{
				LocalPref: uint32(90 + rng.Intn(3)*10),
				MED:       uint32(rng.Intn(2) * 100),
				Path:      p,
				Peer:      MakeRouterID(ASN(rng.Intn(50)), uint16(i)),
			}
		}
		best, _ := Decide(QuasiRouterConfig, cands, nil)
		for i, c := range cands {
			if i == best {
				continue
			}
			if !Better(QuasiRouterConfig, cands[best], c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecideElimBufReuse(t *testing.T) {
	cands := []*Route{route(withPeer(MakeRouterID(1, 0))), route(withPeer(MakeRouterID(1, 1)))}
	buf := make([]Step, 0, 8)
	best, elim := Decide(QuasiRouterConfig, cands, buf)
	if best != 0 {
		t.Fatalf("best=%d", best)
	}
	if cap(elim) != cap(buf) {
		t.Fatal("elim should reuse the provided buffer")
	}
}

// referenceDecide is the elimination-loop decision process Decide was
// first written as, kept verbatim as an oracle: each step computes the
// best attribute value among the candidates still alive and eliminates
// the rest, exactly as Figure 1 of the paper reads.
func referenceDecide(cfg DecisionConfig, candidates []*Route) (best int, elim []Step) {
	elim = make([]Step, len(candidates))
	if len(candidates) == 0 {
		return -1, elim
	}
	alive := make([]int, 0, len(candidates))
	for i := range candidates {
		alive = append(alive, i)
	}
	eliminate := func(step Step, keep func(r *Route) bool) {
		if len(alive) == 1 {
			return
		}
		out := alive[:0]
		for _, i := range alive {
			if keep(candidates[i]) {
				out = append(out, i)
			} else {
				elim[i] = step
			}
		}
		alive = out
	}

	maxLP := uint32(0)
	for _, i := range alive {
		if lp := candidates[i].LocalPref; lp > maxLP {
			maxLP = lp
		}
	}
	eliminate(StepLocalPref, func(r *Route) bool { return r.LocalPref == maxLP })

	minLen := int(^uint(0) >> 1)
	for _, i := range alive {
		if l := len(candidates[i].Path); l < minLen {
			minLen = l
		}
	}
	eliminate(StepASPathLen, func(r *Route) bool { return len(r.Path) == minLen })

	if cfg.CompareOrigin {
		minOrigin := Origin(255)
		for _, i := range alive {
			if o := candidates[i].Origin; o < minOrigin {
				minOrigin = o
			}
		}
		eliminate(StepOrigin, func(r *Route) bool { return r.Origin == minOrigin })
	}

	minMED := ^uint32(0)
	for _, i := range alive {
		if m := candidates[i].MED; m < minMED {
			minMED = m
		}
	}
	eliminate(StepMED, func(r *Route) bool { return r.MED == minMED })

	if cfg.PreferEBGP {
		anyEBGP := false
		for _, i := range alive {
			if candidates[i].EBGP {
				anyEBGP = true
				break
			}
		}
		if anyEBGP {
			eliminate(StepEBGP, func(r *Route) bool { return r.EBGP })
		}
	}

	if cfg.CompareIGPCost {
		minCost := ^uint32(0)
		for _, i := range alive {
			if c := candidates[i].IGPCost; c < minCost {
				minCost = c
			}
		}
		eliminate(StepIGPCost, func(r *Route) bool { return r.IGPCost == minCost })
	}

	minPeer := ^RouterID(0)
	for _, i := range alive {
		if p := candidates[i].Peer; p < minPeer {
			minPeer = p
		}
	}
	eliminate(StepRouterID, func(r *Route) bool { return r.Peer == minPeer })

	return alive[0], elim
}

// configSteps lists the steps cfg runs, in order.
func configSteps(cfg DecisionConfig) []Step {
	steps := []Step{StepLocalPref, StepASPathLen}
	if cfg.CompareOrigin {
		steps = append(steps, StepOrigin)
	}
	steps = append(steps, StepMED)
	if cfg.PreferEBGP {
		steps = append(steps, StepEBGP)
	}
	if cfg.CompareIGPCost {
		steps = append(steps, StepIGPCost)
	}
	return append(steps, StepRouterID)
}

// randomCandidates draws n candidates over narrow attribute ranges and
// forces ties: most candidates copy an earlier one and then differ from
// it only at one randomly chosen step, so every step of cfg decides some
// comparisons. Peers are distinct unless dupPeers is set, in which case a
// copy may keep its source's peer and tie with it at every step.
func randomCandidates(rng *rand.Rand, cfg DecisionConfig, n int, dupPeers bool) []*Route {
	steps := configSteps(cfg)
	cands := make([]*Route, n)
	for i := range cands {
		peer := MakeRouterID(ASN(1+rng.Intn(4)), uint16(i))
		if i > 0 && rng.Intn(4) != 0 {
			c := *cands[rng.Intn(i)]
			if !dupPeers || rng.Intn(3) != 0 {
				c.Peer = peer
			}
			switch steps[rng.Intn(len(steps))] {
			case StepLocalPref:
				c.LocalPref += uint32(1 + rng.Intn(2))
			case StepASPathLen:
				c.Path = append(c.Path.Clone(), ASN(1+rng.Intn(9)))
			case StepOrigin:
				c.Origin = (c.Origin + 1) % 3
			case StepMED:
				c.MED = uint32(rng.Intn(3) * 50)
			case StepEBGP:
				c.EBGP = !c.EBGP
			case StepIGPCost:
				c.IGPCost = uint32(rng.Intn(4))
			}
			cands[i] = &c
			continue
		}
		p := make(Path, 1+rng.Intn(3))
		for j := range p {
			p[j] = ASN(1 + rng.Intn(9))
		}
		cands[i] = &Route{
			LocalPref: uint32(100 + 10*rng.Intn(2)),
			MED:       uint32(rng.Intn(3) * 50),
			Path:      p,
			Peer:      peer,
			EBGP:      rng.Intn(2) == 0,
			IGPCost:   uint32(rng.Intn(4)),
			Origin:    Origin(rng.Intn(3)),
		}
	}
	return cands
}

func TestDecideMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DecisionConfig
	}{{"quasi", QuasiRouterConfig}, {"ground-truth", GroundTruthConfig}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			buf := make([]Step, 0, 4)
			for trial := 0; trial < 3000; trial++ {
				dup := trial%5 == 4
				cands := randomCandidates(rng, tc.cfg, 1+rng.Intn(12), dup)
				wantBest, wantElim := referenceDecide(tc.cfg, cands)
				for _, b := range [][]Step{nil, buf} {
					best, elim := Decide(tc.cfg, cands, b)
					if best != wantBest || !slices.Equal(elim, wantElim) {
						t.Fatalf("trial %d: Decide = %d %v, reference = %d %v\ncands %v",
							trial, best, elim, wantBest, wantElim, cands)
					}
				}
				w := cands[wantBest]
				for i, c := range cands {
					if step, _ := Compare(tc.cfg, c, w); step != wantElim[i] {
						t.Fatalf("trial %d: candidate %d elim %v, Compare vs winner says %v", trial, i, wantElim[i], step)
					}
				}
				if dup {
					continue // the first of fully tied candidates wins by position
				}
				perm := rng.Perm(len(cands))
				shuffled := make([]*Route, len(cands))
				for i, j := range perm {
					shuffled[i] = cands[j]
				}
				best, elim := Decide(tc.cfg, shuffled, nil)
				if shuffled[best] != w {
					t.Fatalf("trial %d: permutation changed the winner", trial)
				}
				for i, j := range perm {
					if elim[i] != wantElim[j] {
						t.Fatalf("trial %d: permutation changed candidate %d's elim: %v vs %v", trial, j, elim[i], wantElim[j])
					}
				}
			}
		})
	}
}

func TestCompareIsATotalOrder(t *testing.T) {
	for _, cfg := range []DecisionConfig{QuasiRouterConfig, GroundTruthConfig} {
		rng := rand.New(rand.NewSource(16))
		for trial := 0; trial < 300; trial++ {
			cands := randomCandidates(rng, cfg, 2+rng.Intn(8), false)
			for _, a := range cands {
				for _, b := range cands {
					sab, cab := Compare(cfg, a, b)
					sba, cba := Compare(cfg, b, a)
					if sab != sba || cab != -cba {
						t.Fatalf("not antisymmetric: Compare(a,b) = %v %d, Compare(b,a) = %v %d", sab, cab, sba, cba)
					}
					if (cab == 0) != (a == b) {
						t.Fatalf("distinct peers must never tie: %v vs %v", a, b)
					}
					for _, c := range cands {
						_, cbc := Compare(cfg, b, c)
						_, cac := Compare(cfg, a, c)
						if cab < 0 && cbc < 0 && cac >= 0 {
							t.Fatalf("not transitive: %v < %v < %v but not %v < %v", a, b, c, a, c)
						}
					}
				}
			}
		}
	}
}

func TestDecideAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cands := randomCandidates(rng, GroundTruthConfig, 12, false)
	buf := make([]Step, 0, len(cands))
	if allocs := testing.AllocsPerRun(100, func() {
		Decide(GroundTruthConfig, cands, buf)
	}); allocs != 0 {
		t.Fatalf("Decide with an elim buffer allocates %.1f times per call, want 0", allocs)
	}
}

func TestStepString(t *testing.T) {
	steps := []Step{StepNone, StepLocalPref, StepASPathLen, StepOrigin, StepMED, StepEBGP, StepIGPCost, StepRouterID, Step(99)}
	for _, s := range steps {
		if s.String() == "" {
			t.Errorf("empty string for step %d", s)
		}
	}
}

func BenchmarkDecide8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cands := make([]*Route, 8)
	for i := range cands {
		p := make(Path, 1+rng.Intn(5))
		for j := range p {
			p[j] = ASN(rng.Intn(1000))
		}
		cands[i] = &Route{LocalPref: 100, MED: uint32(rng.Intn(2) * 100), Path: p, Peer: MakeRouterID(ASN(i), 0)}
	}
	buf := make([]Step, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decide(QuasiRouterConfig, cands, buf)
	}
}
