package sim

import "asmodel/internal/bgp"

// ReferencePropagate exposes referencePropagate to the external test
// package, which can import the model that builds refined networks. It
// returns each router's reference best route (path, MED and announcing
// peer only), or nil, in network order.
func ReferencePropagate(n *Network, prefix bgp.PrefixID, origins []bgp.RouterID) ([]*bgp.Route, bool) {
	ref, ok := referencePropagate(n, prefix, origins)
	out := make([]*bgp.Route, len(ref))
	for i, r := range ref {
		if r != nil {
			out[i] = &bgp.Route{Prefix: prefix, Path: r.path, MED: r.med, Peer: r.peer}
		}
	}
	return out, ok
}
