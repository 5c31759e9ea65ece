package sim

import "asmodel/internal/bgp"

// Clone returns a deep copy of the network's topology and policies:
// routers, sessions, per-prefix import actions and export denies, the
// disabled/Client session flags, and the import/export hooks. Per-prefix
// run state (Adj-RIB-In, advertisements, best routes, the delivery queue
// and RunStats) is NOT copied — a clone starts quiescent, exactly as if
// Run had never been called, and the next Run rebuilds everything from
// the origins.
//
// Clone is the isolation primitive for parallel per-prefix simulation:
// prefixes are independent (DESIGN.md §5), so a worker pool can give
// each worker its own clone and fan the prefix universe out across them
// with no shared mutable state. Cloning only reads the source network,
// so several goroutines may Clone the same quiescent network
// concurrently; the source must not be mid-Run while clones are taken.
//
// Hook functions (Peer.ImportHook/ExportHook) and the IGPCost callback
// are shared by reference, not copied. The hooks installed by this
// repository close over immutable data (relationship local-prefs,
// valley-free export rules, IGP cost matrices), so sharing them across
// concurrently running clones is safe; callers installing custom hooks
// that mutate captured state must make them concurrency-safe themselves.
func (n *Network) Clone() *Network {
	c := &Network{
		cfg:         n.cfg,
		byID:        make(map[bgp.RouterID]*Router, len(n.byID)),
		IGPCost:     n.IGPCost,
		MaxMessages: n.MaxMessages,
		sessions:    n.sessions,
	}
	c.routers = make([]*Router, len(n.routers))
	for i, r := range n.routers {
		nr := &Router{
			ID:    r.ID,
			AS:    r.AS,
			net:   c,
			index: r.index,
			bySrc: make(map[bgp.RouterID]int, len(r.bySrc)),
			ribIn: make([]*bgp.Route, len(r.ribIn)),
			adv:   make([]*bgp.Route, len(r.adv)),
		}
		for id, idx := range r.bySrc {
			nr.bySrc[id] = idx
		}
		c.routers[i] = nr
		c.byID[nr.ID] = nr
	}
	// Second pass: sessions, now that every remote router exists.
	for i, r := range n.routers {
		nr := c.routers[i]
		nr.peers = make([]*Peer, len(r.peers))
		for j, p := range r.peers {
			np := &Peer{
				Local:      nr,
				Remote:     c.byID[p.Remote.ID],
				EBGP:       p.EBGP,
				remoteIdx:  p.remoteIdx,
				localIdx:   p.localIdx,
				disabled:   p.disabled,
				ImportHook: p.ImportHook,
				ExportHook: p.ExportHook,
				Client:     p.Client,
			}
			if p.importActs != nil {
				np.importActs = make(map[bgp.PrefixID]importAction, len(p.importActs))
				for k, v := range p.importActs {
					np.importActs[k] = v
				}
			}
			if p.exportDeny != nil {
				np.exportDeny = make(map[bgp.PrefixID]struct{}, len(p.exportDeny))
				for k := range p.exportDeny {
					np.exportDeny[k] = struct{}{}
				}
			}
			nr.peers[j] = np
		}
	}
	return c
}
