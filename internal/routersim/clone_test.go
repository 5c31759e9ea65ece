package routersim

import "testing"

func TestCloneStartsQuiescentAndConvergesIdentically(t *testing.T) {
	parent := buildHotPotato(t)
	mustRunPrefix(t, parent, 1, 20)
	clone := parent.Clone()

	// A clone starts quiescent even when the parent has run a prefix.
	for _, asn := range clone.ASNs() {
		for _, r := range clone.AS(asn).Routers {
			if r.Best() != nil {
				t.Fatalf("clone router %s has run state before any Run", r.ID)
			}
		}
	}

	// Running the same prefix on the clone converges to the same choices.
	mustRunPrefix(t, clone, 1, 20)
	for _, asn := range parent.ASNs() {
		pa, ca := parent.AS(asn), clone.AS(asn)
		for i := range pa.Routers {
			pb, cb := pa.Routers[i].Best(), ca.Routers[i].Best()
			if (pb == nil) != (cb == nil) {
				t.Fatalf("AS%d router %d: best nil-ness differs", asn, i)
			}
			if pb == nil {
				continue
			}
			if pb.Peer != cb.Peer || !pb.Path.Equal(cb.Path) || pb.IGPCost != cb.IGPCost {
				t.Errorf("AS%d router %d: clone best (%s via %s) != parent best (%s via %s)",
					asn, i, cb.Path, cb.Peer, pb.Path, pb.Peer)
			}
		}
	}
}

func TestCloneMutationsNeverLeakToParent(t *testing.T) {
	parent := buildHotPotato(t)
	mustRunPrefix(t, parent, 1, 20)
	wantR2Exit := parent.AS(10).Routers[2].Best().Peer

	clone := parent.Clone()

	// Take down both eBGP links between AS10 and AS20 on the clone and
	// install an export deny: AS10's transit of the prefix disappears there.
	for _, r := range clone.AS(10).Routers {
		for _, p := range r.Peers() {
			if p.EBGP && p.Remote.AS == 20 {
				p.SetDisabled(true)
				if rev := p.Remote.PeerTo(r.ID); rev != nil {
					rev.SetDisabled(true)
				}
			}
			if p.EBGP && p.Remote.AS == 30 {
				p.DenyExport(1)
			}
		}
	}
	mustRunPrefix(t, clone, 1, 20)
	if best := clone.AS(10).Routers[0].Best(); best != nil {
		t.Fatalf("clone AS10 still routes the prefix after link removal: %v", best.Path)
	}

	// The parent's sessions, policies and converged state are untouched.
	for _, r := range parent.AS(10).Routers {
		for _, p := range r.Peers() {
			if p.Disabled() {
				t.Fatalf("parent session %s->%s disabled by clone mutation", p.Local.ID, p.Remote.ID)
			}
			if p.ExportDenied(1) {
				t.Fatalf("parent session %s->%s gained an export deny", p.Local.ID, p.Remote.ID)
			}
		}
	}
	mustRunPrefix(t, parent, 1, 20)
	if got := parent.AS(10).Routers[2].Best().Peer; got != wantR2Exit {
		t.Errorf("parent hot-potato exit changed after clone mutation: %s != %s", got, wantR2Exit)
	}
}

func TestCloneSharesIGPMatrices(t *testing.T) {
	parent := buildHotPotato(t)
	clone := parent.Clone()
	for asn, pa := range parent.ases {
		ca := clone.ases[asn]
		if ca.RouteReflector != pa.RouteReflector || ca.ASN != pa.ASN {
			t.Fatalf("AS%d metadata not copied", asn)
		}
		if len(pa.dist) == 0 {
			continue
		}
		// Same backing arrays: the immutable distance matrices are shared,
		// not duplicated, across clones.
		if &ca.dist[0][0] != &pa.dist[0][0] {
			t.Errorf("AS%d IGP distance matrix was copied instead of shared", asn)
		}
	}
	// And the clone's IGP callback reads them: hot-potato behaves the same.
	mustRunPrefix(t, clone, 1, 20)
	r2 := clone.AS(10).Routers[2]
	if r2.Best() == nil || r2.Best().IGPCost == 0 {
		t.Error("clone's IGP-cost callback not wired to the shared matrices")
	}
	// Each AS keeps exactly as many routers as the parent, bound to the
	// clone's own network.
	for asn, pa := range parent.ases {
		ca := clone.ases[asn]
		if ca.NumRouters() != pa.NumRouters() {
			t.Fatalf("AS%d router count %d != %d", asn, ca.NumRouters(), pa.NumRouters())
		}
		for i, r := range ca.Routers {
			if r == pa.Routers[i] {
				t.Fatalf("AS%d router %d shared with parent", asn, i)
			}
			if clone.Net.Router(r.ID) != r {
				t.Fatalf("AS%d router %d not registered in clone network", asn, i)
			}
		}
	}
}
