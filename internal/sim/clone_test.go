package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"asmodel/internal/bgp"
)

// peerView is the complete externally observable policy state of one
// session direction, in deterministic order.
type peerView struct {
	Local, Remote bgp.RouterID
	EBGP          bool
	Disabled      bool
	Client        bool
	Imports       []ImportActionView
	ExportDenies  []bgp.PrefixID
}

// snapshotPolicies captures every router's every peer view, in network
// order.
func snapshotPolicies(n *Network) []peerView {
	var out []peerView
	for _, r := range n.Routers() {
		for _, p := range r.Peers() {
			v := peerView{
				Local:    p.Local.ID,
				Remote:   p.Remote.ID,
				EBGP:     p.EBGP,
				Disabled: p.Disabled(),
				Client:   p.Client,
			}
			p.VisitImportActions(func(a ImportActionView) { v.Imports = append(v.Imports, a) })
			p.VisitExportDenies(func(id bgp.PrefixID) { v.ExportDenies = append(v.ExportDenies, id) })
			out = append(out, v)
		}
	}
	return out
}

// bestPaths returns every router's best path (or "<none>") after the last
// Run, in network order.
func bestPaths(n *Network) []string {
	out := make([]string, 0, n.NumRouters())
	for _, r := range n.Routers() {
		if b := r.Best(); b != nil {
			out = append(out, b.Path.String())
		} else {
			out = append(out, "<none>")
		}
	}
	return out
}

// cloneFixture builds a diamond-with-tail network carrying one of every
// policy kind: 1-2-4, 1-3-4 diamond plus 4-5 tail, MED steering on 1<-3,
// an export deny on 2->1, an import deny on 1<-2 for another prefix, and a
// disabled direction on 4<-5.
func cloneFixture(t testing.TB) *Network {
	t.Helper()
	net := NewNetwork(bgp.QuasiRouterConfig)
	rs := make([]*Router, 6)
	for i := 1; i <= 5; i++ {
		r, err := net.AddRouter(bgp.ASN(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	p12, p21, _ := net.Connect(rs[1], rs[2])
	p13, _, _ := net.Connect(rs[1], rs[3])
	net.Connect(rs[2], rs[4])
	net.Connect(rs[3], rs[4])
	p45, _, _ := net.Connect(rs[4], rs[5])
	p13.SetImportMED(1, 0)
	p12.SetImportMED(1, 50)
	p21.DenyExport(2)
	p12.DenyImport(3)
	p12.SetImportLocalPref(4, 200)
	p45.SetDisabled(true)
	return net
}

// TestCloneIsolation mutates every kind of policy on a clone and checks
// the original's observable state stays bit-for-bit identical, and that
// the original still computes the same routes afterwards.
func TestCloneIsolation(t *testing.T) {
	net := cloneFixture(t)
	origin := bgp.MakeRouterID(4, 0)
	mustRun(t, net, 1, origin)
	wantBests := bestPaths(net)
	wantPolicies := snapshotPolicies(net)

	clone := net.Clone()
	if got := snapshotPolicies(clone); !reflect.DeepEqual(got, wantPolicies) {
		t.Fatalf("clone policies differ from source:\n got %+v\nwant %+v", got, wantPolicies)
	}
	// The clone starts quiescent regardless of the source's run state.
	for _, r := range clone.Routers() {
		if r.Best() != nil {
			t.Fatalf("clone router %s has run state before any Run", r.ID)
		}
	}

	// Mutate every policy kind on every session of the clone.
	for _, r := range clone.Routers() {
		for _, p := range r.Peers() {
			p.DenyExport(7)
			p.AllowExport(2) // removes the one deny the fixture installed
			p.SetImportMED(1, 999)
			p.SetImportLocalPref(8, 5)
			p.DenyImport(9)
			p.ClearImport(4)
			p.SetDisabled(!p.Disabled())
		}
	}
	if err := clone.Run(1, []bgp.RouterID{origin}); err != nil {
		t.Fatalf("clone Run: %v", err)
	}
	if err := clone.CheckBest(); err != nil {
		t.Fatal(err)
	}

	if got := snapshotPolicies(net); !reflect.DeepEqual(got, wantPolicies) {
		t.Errorf("original policies changed by clone mutation:\n got %+v\nwant %+v", got, wantPolicies)
	}
	if got := bestPaths(net); !reflect.DeepEqual(got, wantBests) {
		t.Errorf("original run state changed by clone Run: got %v want %v", got, wantBests)
	}
	mustRun(t, net, 1, origin)
	if got := bestPaths(net); !reflect.DeepEqual(got, wantBests) {
		t.Errorf("original re-Run differs after clone mutation: got %v want %v", got, wantBests)
	}
}

// TestCloneSharedUniverseIndependence checks clones of the same source do
// not interfere with each other either.
func TestCloneIndependentOfSiblings(t *testing.T) {
	net := cloneFixture(t)
	a, b := net.Clone(), net.Clone()
	a.Routers()[0].Peers()[0].DenyExport(11)
	if got := b.Routers()[0].Peers()[0].ExportDenied(11); got {
		t.Error("mutating one clone leaked into a sibling clone")
	}
	if net.Routers()[0].Peers()[0].ExportDenied(11) {
		t.Error("mutating a clone leaked into the source")
	}
}

// TestCloneConcurrentRuns runs 8 clones concurrently — each over its own
// prefix slice — while the source network is read from the main goroutine.
// Its purpose is to fail under -race if Clone shares any mutable state.
func TestCloneConcurrentRuns(t *testing.T) {
	net := cloneFixture(t)
	origin := bgp.MakeRouterID(4, 0)
	mustRun(t, net, 1, origin)
	want := bestPaths(net)

	const workers = 8
	bests := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := net.Clone()
			for rep := 0; rep < 20; rep++ {
				if err := clone.Run(1, []bgp.RouterID{origin}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
			bests[w] = bestPaths(clone)
		}(w)
	}
	// Concurrent reads of the source while the clones run.
	for i := 0; i < 100; i++ {
		snapshotPolicies(net)
		_ = net.Config()
		_ = fmt.Sprintf("%v", bestPaths(net))
	}
	wg.Wait()
	for w, got := range bests {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d converged differently: got %v want %v", w, got, want)
		}
	}
}
