package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"asmodel/internal/bgp"
)

// buildLine creates AS1 - AS2 - ... - ASn, one router per AS, and returns
// the routers.
func buildLine(t testing.TB, n int) (*Network, []*Router) {
	t.Helper()
	net := NewNetwork(bgp.QuasiRouterConfig)
	routers := make([]*Router, n)
	for i := 0; i < n; i++ {
		r, err := net.AddRouter(bgp.ASN(i+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}
	for i := 0; i+1 < n; i++ {
		if _, _, err := net.Connect(routers[i], routers[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return net, routers
}

func mustRun(t testing.TB, n *Network, prefix bgp.PrefixID, origins ...bgp.RouterID) {
	t.Helper()
	if err := n.Run(prefix, origins); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := n.CheckBest(); err != nil {
		t.Fatal(err)
	}
}

func TestLinePropagation(t *testing.T) {
	net, rs := buildLine(t, 4)
	mustRun(t, net, 1, rs[0].ID)
	wantPaths := []string{"", "1", "2 1", "3 2 1"}
	for i, r := range rs {
		best := r.Best()
		if best == nil {
			t.Fatalf("router %s has no best route", r.ID)
		}
		if got := best.Path.String(); got != wantPaths[i] {
			t.Errorf("router %s best path = %q, want %q", r.ID, got, wantPaths[i])
		}
	}
	if net.MessagesDelivered() == 0 {
		t.Error("expected some messages")
	}
}

func TestConnectErrors(t *testing.T) {
	net := NewNetwork(bgp.QuasiRouterConfig)
	a, _ := net.AddRouter(1, 0)
	b, _ := net.AddRouter(2, 0)
	if _, _, err := net.Connect(a, a); err == nil {
		t.Error("self-connect should fail")
	}
	if _, _, err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.Connect(b, a); err == nil {
		t.Error("duplicate session should fail")
	}
	if _, err := net.AddRouter(1, 0); err == nil {
		t.Error("duplicate router should fail")
	}
	if err := net.Run(1, []bgp.RouterID{bgp.MakeRouterID(99, 0)}); err == nil {
		t.Error("unknown origin should fail")
	}
}

// TestDiamondTieBreak: origin AS4 reachable from AS1 via AS2 and AS3 with
// equal-length paths; AS1 must pick the neighbor with the lowest router ID.
func TestDiamondTieBreak(t *testing.T) {
	net := NewNetwork(bgp.QuasiRouterConfig)
	r1, _ := net.AddRouter(1, 0)
	r2, _ := net.AddRouter(2, 0)
	r3, _ := net.AddRouter(3, 0)
	r4, _ := net.AddRouter(4, 0)
	net.Connect(r1, r2)
	net.Connect(r1, r3)
	net.Connect(r2, r4)
	net.Connect(r3, r4)
	mustRun(t, net, 1, r4.ID)
	best := r1.Best()
	if best == nil {
		t.Fatal("no best at AS1")
	}
	if best.Path.String() != "2 4" {
		t.Errorf("AS1 best = %q, want \"2 4\" (lower router ID)", best.Path)
	}
	// Both routes must be in the RIB-In and the loser eliminated at the
	// router-ID step (the paper's potential-RIB-Out situation).
	cands, elim := r1.DecideRIB()
	if len(cands) != 2 {
		t.Fatalf("AS1 RIB has %d candidates", len(cands))
	}
	for i, c := range cands {
		if c.Path.String() == "3 4" && elim[i] != bgp.StepRouterID {
			t.Errorf("path via AS3 eliminated at %v, want router-id", elim[i])
		}
	}
}

func TestImportMEDSteersSelection(t *testing.T) {
	net := NewNetwork(bgp.QuasiRouterConfig)
	r1, _ := net.AddRouter(1, 0)
	r2, _ := net.AddRouter(2, 0)
	r3, _ := net.AddRouter(3, 0)
	r4, _ := net.AddRouter(4, 0)
	p12, _, _ := net.Connect(r1, r2)
	p13, _, _ := net.Connect(r1, r3)
	net.Connect(r2, r4)
	net.Connect(r3, r4)
	// Prefer the (otherwise losing) route via AS3 by giving it a lower MED.
	p13.SetImportMED(1, 0)
	p12.SetImportMED(1, 50)
	mustRun(t, net, 1, r4.ID)
	if got := r1.Best().Path.String(); got != "3 4" {
		t.Errorf("AS1 best = %q, want \"3 4\" after MED steering", got)
	}
	// Clearing the action restores the tie-break outcome.
	p13.ClearImport(1)
	p12.ClearImport(1)
	mustRun(t, net, 1, r4.ID)
	if got := r1.Best().Path.String(); got != "2 4" {
		t.Errorf("AS1 best = %q after clearing, want \"2 4\"", got)
	}
}

func TestImportDeny(t *testing.T) {
	net, rs := buildLine(t, 3)
	rs[2].PeerTo(rs[1].ID).DenyImport(1)
	mustRun(t, net, 1, rs[0].ID)
	if rs[2].Best() != nil {
		t.Errorf("AS3 should have no route, got %v", rs[2].Best())
	}
	if rs[1].Best() == nil {
		t.Error("AS2 should still have a route")
	}
}

func TestExportDeny(t *testing.T) {
	net, rs := buildLine(t, 3)
	rs[1].PeerTo(rs[2].ID).DenyExport(1)
	mustRun(t, net, 1, rs[0].ID)
	if rs[2].Best() != nil {
		t.Errorf("AS3 should have no route (export denied), got %v", rs[2].Best())
	}
	// Filter deletion: allowing export restores reachability.
	rs[1].PeerTo(rs[2].ID).AllowExport(1)
	mustRun(t, net, 1, rs[0].ID)
	if rs[2].Best() == nil {
		t.Error("AS3 should have a route after AllowExport")
	}
	if rs[1].PeerTo(rs[2].ID).ExportDenied(1) {
		t.Error("ExportDenied should be false after AllowExport")
	}
}

func TestImportLocalPrefOverridesLength(t *testing.T) {
	// AS1 sees a 1-hop route from AS2 and a 2-hop route via AS3; raising
	// local-pref on the AS3 session must win despite the longer path.
	net := NewNetwork(bgp.QuasiRouterConfig)
	r1, _ := net.AddRouter(1, 0)
	r2, _ := net.AddRouter(2, 0)
	r3, _ := net.AddRouter(3, 0)
	net.Connect(r1, r2)
	p13, _, _ := net.Connect(r1, r3)
	net.Connect(r3, r2)
	p13.SetImportLocalPref(1, 200)
	mustRun(t, net, 1, r2.ID)
	if got := r1.Best().Path.String(); got != "3 2" {
		t.Errorf("AS1 best = %q, want \"3 2\" with raised local-pref", got)
	}
}

func TestEBGPLoopRejection(t *testing.T) {
	// Triangle 1-2-3. AS1's announcement must not be accepted back by AS1.
	net := NewNetwork(bgp.QuasiRouterConfig)
	r1, _ := net.AddRouter(1, 0)
	r2, _ := net.AddRouter(2, 0)
	r3, _ := net.AddRouter(3, 0)
	net.Connect(r1, r2)
	net.Connect(r2, r3)
	net.Connect(r3, r1)
	mustRun(t, net, 1, r1.ID)
	routes, _ := r1.RIBIn()
	for _, rt := range routes {
		if rt.Path.Contains(1) {
			t.Errorf("AS1 accepted looped path %v", rt.Path)
		}
	}
	// AS1's best remains its local route.
	if len(r1.Best().Path) != 0 {
		t.Errorf("AS1 best should be the local route, got %v", r1.Best().Path)
	}
}

func TestMultipleOrigins(t *testing.T) {
	// Anycast-style: prefix originated at both ends of a 5-AS line. The
	// middle AS picks the closer origin; with equal distance, the lower
	// neighbor router ID wins.
	net, rs := buildLine(t, 5)
	mustRun(t, net, 1, rs[0].ID, rs[4].ID)
	mid := rs[2]
	best := mid.Best()
	if best == nil || len(best.Path) != 2 {
		t.Fatalf("middle best = %v, want a 2-hop path", best)
	}
	if best.Path.String() != "2 1" {
		t.Errorf("middle best = %q, want \"2 1\" (tie-break)", best.Path)
	}
}

func TestIBGPFullMeshAndHotPotato(t *testing.T) {
	// AS10 has three routers in a full iBGP mesh. Routers A and B each have
	// an eBGP session to a router of origin AS20 (two inter-AS links).
	// Router C learns both routes via iBGP and must pick the exit with the
	// lower IGP cost (hot potato), not the lower router ID.
	net := NewNetwork(bgp.GroundTruthConfig)
	a, _ := net.AddRouter(10, 0)
	b, _ := net.AddRouter(10, 1)
	c, _ := net.AddRouter(10, 2)
	oA, _ := net.AddRouter(20, 0)
	oB, _ := net.AddRouter(20, 1)
	net.Connect(a, b)
	net.Connect(a, c)
	net.Connect(b, c)
	net.Connect(oA, oB) // iBGP inside AS20
	net.Connect(a, oA)
	net.Connect(b, oB)
	// IGP costs from c: far from a (cost 10), close to b (cost 1).
	net.IGPCost = func(from, to bgp.RouterID) uint32 {
		if from == c.ID && to == a.ID || from == a.ID && to == c.ID {
			return 10
		}
		return 1
	}
	mustRun(t, net, 1, oA.ID, oB.ID)

	if a.Best() == nil || !a.Best().EBGP {
		t.Fatalf("router a should prefer its eBGP route, got %v", a.Best())
	}
	if b.Best() == nil || !b.Best().EBGP {
		t.Fatalf("router b should prefer its eBGP route, got %v", b.Best())
	}
	cBest := c.Best()
	if cBest == nil {
		t.Fatal("router c has no route")
	}
	if cBest.EBGP {
		t.Fatal("router c has no eBGP session to AS20; its best must be iBGP-learned")
	}
	if cBest.Peer != b.ID {
		t.Errorf("router c exit = %s, want %s (hot potato)", cBest.Peer, b.ID)
	}
	// iBGP-learned routes must not have been re-advertised over iBGP:
	// c must have learned exactly two iBGP routes (from a and from b).
	routes, from := c.RIBIn()
	if len(routes) != 2 {
		t.Fatalf("router c RIB-In size = %d, want 2", len(routes))
	}
	for _, p := range from {
		if p.EBGP {
			t.Error("router c learned an eBGP route from nowhere")
		}
	}
}

func TestIBGPNoReadvertisement(t *testing.T) {
	// Chain a-b-c inside one AS (NOT a full mesh) with an eBGP feed at a:
	// b learns via iBGP from a but must not forward to c.
	net := NewNetwork(bgp.GroundTruthConfig)
	a, _ := net.AddRouter(10, 0)
	b, _ := net.AddRouter(10, 1)
	c, _ := net.AddRouter(10, 2)
	o, _ := net.AddRouter(20, 0)
	net.Connect(a, b)
	net.Connect(b, c)
	net.Connect(o, a)
	mustRun(t, net, 1, o.ID)
	if b.Best() == nil {
		t.Fatal("b should learn the route via iBGP")
	}
	if c.Best() != nil {
		t.Errorf("c must not learn an iBGP-learned route re-advertised by b, got %v", c.Best())
	}
}

func TestExportHookValleyFreeStyle(t *testing.T) {
	// AS2 refuses to export routes not learned from customers: AS1 and AS3
	// both peer with AS2; AS3's prefix must not reach AS1 through AS2.
	net := NewNetwork(bgp.QuasiRouterConfig)
	r1, _ := net.AddRouter(1, 0)
	r2, _ := net.AddRouter(2, 0)
	r3, _ := net.AddRouter(3, 0)
	net.Connect(r1, r2)
	net.Connect(r2, r3)
	// AS2 -> AS1 export: only locally originated routes.
	r2.PeerTo(r1.ID).ExportHook = func(r *bgp.Route) bool { return len(r.Path) == 0 }
	mustRun(t, net, 1, r3.ID)
	if r1.Best() != nil {
		t.Errorf("AS1 must not receive the peer route, got %v", r1.Best())
	}
	if r2.Best() == nil {
		t.Error("AS2 itself should have the route")
	}
}

func TestImportHookDeny(t *testing.T) {
	net, rs := buildLine(t, 3)
	rs[2].PeerTo(rs[1].ID).ImportHook = func(r *bgp.Route) bool { return false }
	mustRun(t, net, 1, rs[0].ID)
	if rs[2].Best() != nil {
		t.Error("import hook deny should drop the route")
	}
}

func TestDivergenceDetected(t *testing.T) {
	// The classic BAD GADGET: a 3-cycle where every AS prefers the route
	// through its clockwise neighbor (longer path) over the direct route.
	// This has no stable solution; the engine must report ErrDiverged.
	// This reproduces the paper's §4.6 observation that preferring longer
	// AS-paths via local-pref "can lead to divergence".
	net := NewNetwork(bgp.QuasiRouterConfig)
	r0, _ := net.AddRouter(10, 0)
	r1, _ := net.AddRouter(11, 0)
	r2, _ := net.AddRouter(12, 0)
	origin, _ := net.AddRouter(99, 0)
	net.Connect(r0, r1)
	net.Connect(r1, r2)
	net.Connect(r2, r0)
	net.Connect(origin, r0)
	net.Connect(origin, r1)
	net.Connect(origin, r2)
	cw := map[bgp.ASN]bgp.ASN{10: 11, 11: 12, 12: 10}
	for _, r := range []*Router{r0, r1, r2} {
		self := r.AS
		for _, p := range r.Peers() {
			p.ImportHook = func(rt *bgp.Route) bool {
				if first, ok := rt.Path.First(); ok && first == cw[self] {
					rt.LocalPref = 200 // prefer the longer, clockwise route
				}
				return true
			}
		}
	}
	net.MaxMessages = 5000
	err := net.Run(1, []bgp.RouterID{origin.ID})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("expected ErrDiverged, got %v", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DivergenceError, got %T", err)
	}
	if de.Prefix != 1 || de.Budget != 5000 || de.Messages != 5001 {
		t.Errorf("divergence context = %+v", de)
	}
	for _, want := range []string{"prefix 1", "5001 messages", "budget 5000"} {
		if !strings.Contains(de.Error(), want) {
			t.Errorf("error text missing %q: %s", want, de.Error())
		}
	}
	st := net.LastRunStats()
	if !st.Diverged || st.BudgetUsed() <= 1.0 {
		t.Errorf("diverged run stats = %+v", st)
	}
	// The best route tracks the RIB after every delivery, so even an
	// oscillation cut off mid-flight leaves it consistent.
	if err := net.CheckBest(); err != nil {
		t.Error(err)
	}
}

// badGadget builds the 3-cycle oscillator of TestDivergenceDetected and
// returns the network plus the origin router.
func badGadget(t testing.TB) (*Network, *Router) {
	t.Helper()
	net := NewNetwork(bgp.QuasiRouterConfig)
	r0, _ := net.AddRouter(10, 0)
	r1, _ := net.AddRouter(11, 0)
	r2, _ := net.AddRouter(12, 0)
	origin, _ := net.AddRouter(99, 0)
	net.Connect(r0, r1)
	net.Connect(r1, r2)
	net.Connect(r2, r0)
	net.Connect(origin, r0)
	net.Connect(origin, r1)
	net.Connect(origin, r2)
	cw := map[bgp.ASN]bgp.ASN{10: 11, 11: 12, 12: 10}
	for _, r := range []*Router{r0, r1, r2} {
		self := r.AS
		for _, p := range r.Peers() {
			p.ImportHook = func(rt *bgp.Route) bool {
				if first, ok := rt.Path.First(); ok && first == cw[self] {
					rt.LocalPref = 200
				}
				return true
			}
		}
	}
	return net, origin
}

// TestRunBudgetOverride: the per-run budget overrides MaxMessages for
// that run only, and a zero override keeps the configured budget.
func TestRunBudgetOverride(t *testing.T) {
	net, origin := badGadget(t)
	net.MaxMessages = 5000
	err := net.RunBudget(context.Background(), 1, []bgp.RouterID{origin.ID}, 40)
	var de *DivergenceError
	if !errors.As(err, &de) || de.Budget != 40 {
		t.Fatalf("override budget not applied: %v", err)
	}
	// Zero override falls back to MaxMessages.
	err = net.RunBudget(context.Background(), 1, []bgp.RouterID{origin.ID}, 0)
	if !errors.As(err, &de) || de.Budget != 5000 {
		t.Fatalf("zero override should keep MaxMessages: %v", err)
	}
	// A convergent topology succeeds under a generous override.
	line, rs := buildLine(t, 4)
	if err := line.RunBudget(context.Background(), 1, []bgp.RouterID{rs[0].ID}, 100000); err != nil {
		t.Fatalf("RunBudget on convergent topology: %v", err)
	}
	if rs[3].Best() == nil {
		t.Error("route did not propagate under budget override")
	}
}

// TestRunContextCanceled: a canceled context aborts the run with an
// error matching context.Canceled, before any message is delivered when
// canceled up front, and mid-loop when canceled during propagation.
func TestRunContextCanceled(t *testing.T) {
	net, rs := buildLine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := net.RunContext(ctx, 1, []bgp.RouterID{rs[0].ID})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrDiverged) {
		t.Error("cancellation must not be reported as divergence")
	}
	// The next Run on the same network starts clean.
	mustRun(t, net, 1, rs[0].ID)
	if rs[3].Best() == nil {
		t.Error("network unusable after canceled run")
	}

	// Mid-propagation cancellation: the oscillator would run forever under
	// this budget, so the run can only end via the in-loop context check
	// (or the up-front one if the cancel wins the race — same error).
	gadget, origin := badGadget(t)
	gadget.MaxMessages = 1 << 30
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gadget.RunContext(ctx2, 1, []bgp.RouterID{origin.ID}) }()
	cancel2()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation: want context.Canceled, got %v", err)
	}
}

func TestDeterministicReRun(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(bgp.QuasiRouterConfig)
	const n = 40
	rs := make([]*Router, n)
	for i := range rs {
		rs[i], _ = net.AddRouter(bgp.ASN(i+1), 0)
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		net.Connect(rs[i], rs[j])
		if k := rng.Intn(n); k != i && rs[i].PeerTo(rs[k].ID) == nil {
			net.Connect(rs[i], rs[k])
		}
	}
	snap := func() []string {
		out := make([]string, n)
		for i, r := range rs {
			if b := r.Best(); b != nil {
				out[i] = b.Path.String()
			}
		}
		return out
	}
	mustRun(t, net, 1, rs[0].ID)
	first := snap()
	for trial := 0; trial < 3; trial++ {
		mustRun(t, net, 1, rs[0].ID)
		again := snap()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic result at router %d: %q vs %q", i, first[i], again[i])
			}
		}
	}
}

// TestShortestPathProperty: on a random policy-free single-router-per-AS
// network, every router's best path length must equal its BFS distance to
// the origin (the decision process reduces to shortest AS-path).
func TestShortestPathProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		net := NewNetwork(bgp.QuasiRouterConfig)
		rs := make([]*Router, n)
		for i := range rs {
			rs[i], _ = net.AddRouter(bgp.ASN(i+1), 0)
		}
		adj := make([][]int, n)
		addEdge := func(i, j int) {
			if i == j || rs[i].PeerTo(rs[j].ID) != nil {
				return
			}
			net.Connect(rs[i], rs[j])
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
		for i := 1; i < n; i++ {
			addEdge(i, rng.Intn(i)) // connected
		}
		extra := rng.Intn(2 * n)
		for e := 0; e < extra; e++ {
			addEdge(rng.Intn(n), rng.Intn(n))
		}
		mustRun(t, net, 1, rs[0].ID)

		// BFS from origin.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		q := []int{0}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, v := range adj[u] {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					q = append(q, v)
				}
			}
		}
		for i, r := range rs {
			best := r.Best()
			if best == nil {
				t.Fatalf("seed %d: router %d unreachable in sim but BFS dist %d", seed, i, dist[i])
			}
			if len(best.Path) != dist[i] {
				t.Fatalf("seed %d: router %d best path len %d, BFS dist %d (path %v)",
					seed, i, len(best.Path), dist[i], best.Path)
			}
		}
	}
}

func TestRIBInAccessors(t *testing.T) {
	net, rs := buildLine(t, 3)
	mustRun(t, net, 7, rs[0].ID)
	if got := net.Prefix(); got != 7 {
		t.Errorf("Prefix() = %d", got)
	}
	mid := rs[1]
	routes, from := mid.RIBIn()
	if len(routes) != 1 || from[0].Remote != rs[0] {
		t.Fatalf("mid RIB-In: %v", routes)
	}
	if mid.RIBInAt(from[0].localIdx) != routes[0] {
		t.Error("RIBInAt mismatch")
	}
	if mid.Local() != nil {
		t.Error("mid should not originate")
	}
	if rs[0].Local() == nil {
		t.Error("origin should have a local route")
	}
	if net.NumRouters() != 3 || net.NumSessions() != 2 {
		t.Errorf("counts: %d routers %d sessions", net.NumRouters(), net.NumSessions())
	}
	if net.Router(rs[1].ID) != rs[1] {
		t.Error("Router lookup failed")
	}
	if net.Router(bgp.MakeRouterID(999, 0)) != nil {
		t.Error("unknown Router lookup should be nil")
	}
	if net.Config() != bgp.QuasiRouterConfig {
		t.Error("Config mismatch")
	}
}

func TestStateResetBetweenRuns(t *testing.T) {
	net, rs := buildLine(t, 3)
	mustRun(t, net, 1, rs[0].ID)
	// Second run with the origin at the other end: no stale state allowed.
	mustRun(t, net, 2, rs[2].ID)
	if rs[0].Local() != nil {
		t.Error("stale local route at old origin")
	}
	if got := rs[0].Best().Path.String(); got != "2 3" {
		t.Errorf("rs[0] best = %q, want \"2 3\"", got)
	}
	if rs[0].Best().Prefix != 2 {
		t.Errorf("stale prefix %d", rs[0].Best().Prefix)
	}
}

func BenchmarkRunLine100(b *testing.B) {
	net, rs := buildLine(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Run(1, []bgp.RouterID{rs[0].ID}); err != nil {
			b.Fatal(err)
		}
	}
}

// buildRandom500 is the BenchmarkRunRandom500 topology: 500 one-router
// ASes, a random spanning tree plus up to two extra random sessions each.
func buildRandom500() (*Network, []*Router) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(bgp.QuasiRouterConfig)
	const n = 500
	rs := make([]*Router, n)
	for i := range rs {
		rs[i], _ = net.AddRouter(bgp.ASN(i+1), 0)
	}
	for i := 1; i < n; i++ {
		net.Connect(rs[i], rs[rng.Intn(i)])
		for e := 0; e < 2; e++ {
			j := rng.Intn(n)
			if j != i && rs[i].PeerTo(rs[j].ID) == nil {
				net.Connect(rs[i], rs[j])
			}
		}
	}
	return net, rs
}

func BenchmarkRunRandom500(b *testing.B) {
	net, rs := buildRandom500()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Run(1, []bgp.RouterID{rs[i%len(rs)].ID}); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleNetwork_Run() {
	net := NewNetwork(bgp.QuasiRouterConfig)
	a, _ := net.AddRouter(65001, 0)
	b, _ := net.AddRouter(65002, 0)
	net.Connect(a, b)
	net.Run(0, []bgp.RouterID{a.ID})
	fmt.Println(b.Best().Path)
	// Output: 65001
}

func TestRunStats(t *testing.T) {
	net, rs := buildLine(t, 5)
	mustRun(t, net, 7, rs[0].ID)
	st := net.LastRunStats()
	if st.Prefix != 7 {
		t.Errorf("stats prefix = %d, want 7", st.Prefix)
	}
	if st.Messages != net.MessagesDelivered() || st.Messages == 0 {
		t.Errorf("stats messages = %d, MessagesDelivered = %d", st.Messages, net.MessagesDelivered())
	}
	// A line propagation installs one route per downstream session
	// direction plus the reverse announcements; at minimum every router
	// past the origin installed its upstream route.
	if st.RoutesInstalled < 4 {
		t.Errorf("routes installed = %d, want >= 4", st.RoutesInstalled)
	}
	if st.RoutesWithdrawn != 0 || st.RoutesReplaced != 0 {
		t.Errorf("line topology should not withdraw/replace: %+v", st)
	}
	if st.BestChanges < 4 {
		t.Errorf("best changes = %d, want >= 4", st.BestChanges)
	}
	if st.QueueHighWater < 1 {
		t.Errorf("queue high-water = %d", st.QueueHighWater)
	}
	if st.Budget == 0 || st.BudgetUsed() <= 0 || st.BudgetUsed() >= 1 {
		t.Errorf("budget accounting: %+v", st)
	}
	if st.Diverged {
		t.Error("converged run marked diverged")
	}
	if st.Elapsed <= 0 {
		t.Errorf("elapsed = %v", st.Elapsed)
	}

	// A rerun resets the per-run snapshot.
	mustRun(t, net, 8, rs[4].ID)
	if got := net.LastRunStats().Prefix; got != 8 {
		t.Errorf("stats not reset: prefix = %d", got)
	}
}

func TestRunStatsWithdrawals(t *testing.T) {
	net, rs := buildLine(t, 3)
	mustRun(t, net, 1, rs[0].ID)
	// Deny the origin's export and re-run: downstream routers never learn
	// the route this time, and because Run resets per-prefix state there
	// is nothing to install or withdraw — the counters must reflect that
	// rather than leak totals from the previous run.
	rs[0].PeerTo(rs[1].ID).DenyExport(1)
	mustRun(t, net, 1, rs[0].ID)
	st := net.LastRunStats()
	if st.RoutesInstalled != 0 || st.RoutesWithdrawn != 0 {
		t.Errorf("filtered rerun stats = %+v", st)
	}
}
