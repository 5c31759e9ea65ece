package sim

import (
	"math/rand"
	"testing"

	"asmodel/internal/bgp"
)

// refRoute is a route in the reference propagator: just what the
// quasi-router decision process ranks.
type refRoute struct {
	path bgp.Path
	med  uint32
	peer bgp.RouterID
}

// refBetter ranks a before b under the quasi-router decision process when
// no policy sets local-pref: shorter AS-path, then lower MED, then lower
// announcing router ID.
func refBetter(a, b *refRoute) bool {
	if len(a.path) != len(b.path) {
		return len(a.path) < len(b.path)
	}
	if a.med != b.med {
		return a.med < b.med
	}
	return a.peer < b.peer
}

// referencePropagate computes the stable routing of one prefix on a
// quasi-router network (eBGP sessions only, no local-pref policies) by
// synchronous fixed-point iteration, with no event queue: every round,
// each router picks its best route from what its neighbors selected in
// the previous round. Preference is path length first, so after round k
// every router whose best path has k hops is final and the iteration
// reaches the unique stable state within NumRouters rounds. It returns
// each router's best route, or nil, in network order, and false if the
// iteration did not settle.
func referencePropagate(n *Network, prefix bgp.PrefixID, origins []bgp.RouterID) ([]*refRoute, bool) {
	idx := make(map[*Router]int, len(n.routers))
	for i, r := range n.routers {
		idx[r] = i
	}
	isOrigin := make([]bool, len(n.routers))
	for _, id := range origins {
		isOrigin[idx[n.byID[id]]] = true
	}
	cur := make([]*refRoute, len(n.routers))
	for i := range cur {
		if isOrigin[i] {
			cur[i] = &refRoute{path: bgp.Path{}, med: bgp.DefaultMED}
		}
	}
	for round := 0; round <= len(n.routers); round++ {
		next := make([]*refRoute, len(n.routers))
		changed := false
		for i, r := range n.routers {
			if isOrigin[i] {
				next[i] = cur[i] // the local route's empty path always wins
				continue
			}
			for _, in := range r.Peers() {
				q := in.Remote
				qb := cur[idx[q]]
				if qb == nil || q.PeerTo(r.ID).ExportDenied(prefix) {
					continue
				}
				path := append(bgp.Path{q.AS}, qb.path...)
				if path.Contains(r.AS) {
					continue
				}
				cand := &refRoute{path: path, med: bgp.DefaultMED, peer: q.ID}
				if act, ok := in.importActs[prefix]; ok {
					if act.deny {
						continue
					}
					if act.hasMED {
						cand.med = act.med
					}
				}
				if next[i] == nil || refBetter(cand, next[i]) {
					next[i] = cand
				}
			}
			if (next[i] == nil) != (cur[i] == nil) || next[i] != nil &&
				(!next[i].path.Equal(cur[i].path) || next[i].peer != cur[i].peer || next[i].med != cur[i].med) {
				changed = true
			}
		}
		cur = next
		if !changed {
			return cur, true
		}
	}
	return cur, false
}

// randomQuasiNetwork builds a network of 1–3-router ASes joined
// by random eBGP sessions (no iBGP, as in a quasi-router model) and
// scatters the refinement's policy vocabulary over the given prefixes:
// import denies, import MEDs and export denies.
func randomQuasiNetwork(rng *rand.Rand, prefixes int) *Network {
	net := NewNetwork(bgp.QuasiRouterConfig)
	ases := 6 + rng.Intn(15)
	var rs []*Router
	for a := 1; a <= ases; a++ {
		for q := 0; q < 1+rng.Intn(3); q++ {
			r, _ := net.AddRouter(bgp.ASN(a), uint16(q))
			rs = append(rs, r)
		}
	}
	connect := func(a, b *Router) {
		if a.AS != b.AS && a.PeerTo(b.ID) == nil {
			net.Connect(a, b)
		}
	}
	for i := 1; i < len(rs); i++ {
		// Link most routers to an earlier router of another AS.
		for tries := 0; tries < 20; tries++ {
			if j := rng.Intn(i); rs[j].AS != rs[i].AS {
				connect(rs[i], rs[j])
				break
			}
		}
	}
	for e := 0; e < len(rs); e++ {
		connect(rs[rng.Intn(len(rs))], rs[rng.Intn(len(rs))])
	}
	for _, r := range rs {
		for _, p := range r.Peers() {
			for pf := 0; pf < prefixes; pf++ {
				id := bgp.PrefixID(pf)
				switch rng.Intn(12) {
				case 0:
					p.DenyImport(id)
				case 1, 2:
					p.SetImportMED(id, uint32(rng.Intn(3)*50))
				case 3:
					p.DenyExport(id)
				}
			}
		}
	}
	return net
}

// TestRunMatchesReference differential-tests the event-driven engine
// against the fixed-point reference on random quasi-router topologies:
// every router's best path and announcing peer must agree, and the best
// route Run maintains incrementally must be the decision-process winner.
func TestRunMatchesReference(t *testing.T) {
	const prefixes = 4
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randomQuasiNetwork(rng, prefixes)
		for pf := 0; pf < prefixes; pf++ {
			prefix := bgp.PrefixID(pf)
			var origins []bgp.RouterID
			originAS := net.routers[rng.Intn(len(net.routers))].AS
			for _, r := range net.routers {
				if r.AS == originAS {
					origins = append(origins, r.ID)
				}
			}
			mustRun(t, net, prefix, origins...)
			want, ok := referencePropagate(net, prefix, origins)
			if !ok {
				t.Fatalf("seed %d prefix %d: reference did not settle", seed, pf)
			}
			for i, r := range net.routers {
				got, w := r.Best(), want[i]
				switch {
				case got == nil && w == nil:
				case got == nil || w == nil:
					t.Fatalf("seed %d prefix %d router %s: best %v, reference %v", seed, pf, r.ID, got, w)
				case !got.Path.Equal(w.path) || got.Peer != w.peer:
					t.Fatalf("seed %d prefix %d router %s: best path [%s] from %s, reference [%s] from %s",
						seed, pf, r.ID, got.Path, got.Peer, w.path, w.peer)
				}
			}
		}
	}
}

// maxAllocsPerMessage bounds the heap allocations of one delivered
// message on the BenchmarkRunRandom500 topology. The allocation count of
// a run is deterministic, so the bound holds on any host; it sits about
// 10% above the measured 0.338. Allocations happen only when a best route
// changes (the eBGP advertisement shared by every eBGP session, plus its
// prepended path), never per message or per session; the per-message
// figure was 3.7 when every delivery copied its route and every session
// built its own advertisement.
const maxAllocsPerMessage = 0.37

// TestRunAllocsPerMessage is the propagation allocation gate.
func TestRunAllocsPerMessage(t *testing.T) {
	net, rs := buildRandom500()
	origins := make([][]bgp.RouterID, 25)
	for i := range origins {
		origins[i] = []bgp.RouterID{rs[i*len(rs)/len(origins)].ID}
	}
	msgs := 0
	runAll := func() {
		msgs = 0
		for i, o := range origins {
			if err := net.Run(bgp.PrefixID(i), o); err != nil {
				t.Fatal(err)
			}
			msgs += net.MessagesDelivered()
		}
	}
	allocs := testing.AllocsPerRun(3, runAll)
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocations over %d messages: %.4f per message", allocs, msgs, perMsg)
	if perMsg > maxAllocsPerMessage {
		t.Fatalf("propagation allocates %.4f times per message, bound %.4f", perMsg, maxAllocsPerMessage)
	}
}
