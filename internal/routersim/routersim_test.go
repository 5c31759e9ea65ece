package routersim

import (
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
)

func TestBuildErrors(t *testing.T) {
	in := New()
	if _, err := in.AddAS(10, 0); err == nil {
		t.Error("zero routers should fail")
	}
	if _, err := in.AddAS(10, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := in.AddAS(10, 1); err == nil {
		t.Error("duplicate AS should fail")
	}
	if _, _, err := in.ConnectAS(10, 0, 10, 1); err == nil {
		t.Error("intra-AS ConnectAS should fail")
	}
	if _, _, err := in.ConnectAS(10, 0, 99, 0); err == nil {
		t.Error("unknown AS should fail")
	}
	if _, _, err := in.ConnectAS(10, 5, 10, 0); err == nil {
		t.Error("bad router index should fail")
	}
	if err := in.SetIGPLink(99, 0, 1, 1); err == nil {
		t.Error("IGP link on unknown AS should fail")
	}
	if err := in.RunPrefix(0, 10); err == nil {
		t.Error("RunPrefix before Finalize should fail")
	}
	in.Finalize()
	if err := in.RunPrefix(0, 99); err == nil {
		t.Error("unknown origin should fail")
	}
	if _, err := in.AddAS(11, 1); err == nil {
		t.Error("AddAS after Finalize should fail")
	}
}

// buildHotPotato constructs the paper-style diversity scenario: transit
// AS 10 with routers {0,1,2}, two eBGP links to origin AS 20 (at routers
// 0 and 1), and customer ASes 30 and 40 attached at routers 0 and 1
// respectively. Hot-potato routing makes routers 0 and 1 pick different
// exits, so AS 30 and AS 40 receive the same AS-path "10 20" but through
// different links — and a vantage point inside AS 10 sees the diversity.
// mustRunPrefix propagates one prefix and checks that every router's
// incrementally maintained best route is the decision-process winner.
func mustRunPrefix(t *testing.T, in *Internet, prefix bgp.PrefixID, origin bgp.ASN) {
	t.Helper()
	if err := in.RunPrefix(prefix, origin); err != nil {
		t.Fatalf("prefix %d: %v", prefix, err)
	}
	if err := in.Net.CheckBest(); err != nil {
		t.Fatal(err)
	}
}

func buildHotPotato(t *testing.T) *Internet {
	t.Helper()
	in := New()
	if _, err := in.AddAS(10, 3); err != nil {
		t.Fatal(err)
	}
	in.AddAS(20, 2)
	in.AddAS(30, 1)
	in.AddAS(40, 1)
	// IGP inside AS10: line 0 -1- 1, 1 -1- 2 (router 2 nearer to 1).
	in.SetIGPLink(10, 0, 1, 10)
	in.SetIGPLink(10, 1, 2, 1)
	in.SetIGPLink(10, 0, 2, 10)
	// IGP inside AS20.
	in.SetIGPLink(20, 0, 1, 1)
	// eBGP.
	if _, _, err := in.ConnectAS(10, 0, 20, 0); err != nil {
		t.Fatal(err)
	}
	in.ConnectAS(10, 1, 20, 1)
	in.ConnectAS(10, 2, 30, 0)
	in.ConnectAS(10, 0, 40, 0)
	in.Finalize()
	return in
}

func TestHotPotatoExitSelection(t *testing.T) {
	in := buildHotPotato(t)
	mustRunPrefix(t, in, 1, 20)
	a10 := in.AS(10)
	r0, r1, r2 := a10.Routers[0], a10.Routers[1], a10.Routers[2]
	// Routers 0 and 1 have their own eBGP sessions: they keep them.
	if !r0.Best().EBGP || !r1.Best().EBGP {
		t.Fatal("border routers should pick their own eBGP exits")
	}
	// Router 2 is IGP-close to router 1: hot potato picks exit 1.
	if r2.Best().Peer != r1.ID {
		t.Errorf("router 2 exit = %s, want %s (hot potato)", r2.Best().Peer, r1.ID)
	}
}

func TestObserve(t *testing.T) {
	in := buildHotPotato(t)
	mustRunPrefix(t, in, 1, 20)
	vps := []VantagePoint{
		{ID: "op10-0", Router: in.AS(10).Routers[0]},
		{ID: "op30-0", Router: in.AS(30).Routers[0]},
		{ID: "op20-0", Router: in.AS(20).Routers[0]},
	}
	SortVantagePoints(vps)
	ds := &dataset.Dataset{}
	Observe(ds, "P20", 1234, vps)
	if ds.Len() != 3 {
		t.Fatalf("records=%d", ds.Len())
	}
	for _, r := range ds.Records {
		if err := r.Valid(); err != nil {
			t.Errorf("invalid record: %v", err)
		}
		if r.Learned != 1234 {
			t.Error("learned time not recorded")
		}
		if o, _ := r.Path.Origin(); o != 20 {
			t.Errorf("origin=%v for path %v", o, r.Path)
		}
	}
	// Origin-AS vantage point records the bare path [20].
	for _, r := range ds.Records {
		if r.Obs == "op20-0" && !r.Path.Equal(bgp.Path{20}) {
			t.Errorf("origin vantage path = %v", r.Path)
		}
		if r.Obs == "op30-0" && !r.Path.Equal(bgp.Path{30, 10, 20}) {
			t.Errorf("AS30 vantage path = %v", r.Path)
		}
	}
}

func TestObserveSkipsRouteless(t *testing.T) {
	in := New()
	in.AddAS(10, 1)
	in.AddAS(20, 1)
	// No eBGP link at all: AS10 never learns AS20's prefix.
	in.Finalize()
	mustRunPrefix(t, in, 1, 20)
	ds := &dataset.Dataset{}
	Observe(ds, "P20", 0, []VantagePoint{{ID: "op10-0", Router: in.AS(10).Routers[0]}})
	if ds.Len() != 0 {
		t.Fatalf("routeless vantage recorded %d records", ds.Len())
	}
}

func TestDisconnectedIGPStillConverges(t *testing.T) {
	// AS with two routers but no IGP link: iBGP still works, costs are the
	// large sentinel, and propagation converges.
	in := New()
	in.AddAS(10, 2)
	in.AddAS(20, 1)
	in.ConnectAS(10, 0, 20, 0)
	in.Finalize()
	mustRunPrefix(t, in, 1, 20)
	r1 := in.AS(10).Routers[1]
	if r1.Best() == nil {
		t.Fatal("router 1 should learn via iBGP despite missing IGP link")
	}
	if r1.Best().IGPCost == 0 {
		t.Error("sentinel IGP cost expected for disconnected pair")
	}
}

func TestMultiplePrefixesSequential(t *testing.T) {
	in := buildHotPotato(t)
	for i, origin := range []bgp.ASN{20, 30, 40} {
		mustRunPrefix(t, in, bgp.PrefixID(i), origin)
		if got := in.Net.Prefix(); got != bgp.PrefixID(i) {
			t.Errorf("network prefix = %d", got)
		}
		// Every other AS should reach the origin (no policies installed).
		for _, asn := range in.ASNs() {
			if asn == origin {
				continue
			}
			found := false
			for _, r := range in.AS(asn).Routers {
				if b := r.Best(); b != nil {
					if o, _ := b.Path.Origin(); o == origin {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("AS %d has no route to AS %d", asn, origin)
			}
		}
	}
}

func TestASNsSorted(t *testing.T) {
	in := New()
	in.AddAS(30, 1)
	in.AddAS(10, 1)
	in.AddAS(20, 1)
	got := in.ASNs()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("ASNs=%v", got)
	}
	if in.AS(10).NumRouters() != 1 {
		t.Error("NumRouters")
	}
	if in.AS(99) != nil {
		t.Error("unknown AS should be nil")
	}
}

func TestRouteReflector(t *testing.T) {
	in := New()
	if _, err := in.AddASRR(10, 1); err == nil {
		t.Error("RR AS with one router accepted")
	}
	a, err := in.AddASRR(10, 3) // router 0 = RR, 1 and 2 clients
	if err != nil {
		t.Fatal(err)
	}
	if !a.RouteReflector {
		t.Error("flag not set")
	}
	in.AddAS(20, 1)
	// eBGP feed arrives at CLIENT 1; the RR must reflect it to client 2.
	in.ConnectAS(10, 1, 20, 0)
	in.SetIGPLink(10, 0, 1, 1)
	in.SetIGPLink(10, 0, 2, 1)
	in.Finalize()
	mustRunPrefix(t, in, 1, 20)
	r0, r2 := a.Routers[0], a.Routers[2]
	if r0.Best() == nil {
		t.Fatal("reflector did not learn the client route")
	}
	if r2.Best() == nil {
		t.Fatal("client 2 did not receive the reflected route")
	}
	if r2.Best().EBGP {
		t.Error("client 2's route should be iBGP-learned")
	}
	if o, _ := r2.Best().Path.Origin(); o != 20 {
		t.Errorf("client 2 path=%v", r2.Best().Path)
	}
	// Clients have exactly one iBGP session (to the RR), no mesh.
	ibgp := 0
	for _, p := range r2.Peers() {
		if !p.EBGP {
			ibgp++
		}
	}
	if ibgp != 1 {
		t.Errorf("client 2 has %d iBGP sessions, want 1", ibgp)
	}
}

func TestRouteReflectorHidesDiversity(t *testing.T) {
	// Two eBGP exits at clients 1 and 2; client 3 sees only what the RR
	// reflects — ONE path, not two (the diversity-hiding effect).
	in := New()
	a, _ := in.AddASRR(10, 4)
	in.AddAS(20, 2)
	in.ConnectAS(10, 1, 20, 0)
	in.ConnectAS(10, 2, 20, 1)
	for i := 1; i < 4; i++ {
		in.SetIGPLink(10, 0, i, 1)
	}
	in.SetIGPLink(20, 0, 1, 1)
	in.Finalize()
	mustRunPrefix(t, in, 1, 20)
	r3 := a.Routers[3]
	routes, _ := r3.RIBIn()
	if len(routes) != 1 {
		t.Fatalf("client 3 sees %d routes, want exactly 1 (reflection hides diversity)", len(routes))
	}
}
