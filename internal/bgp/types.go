// Package bgp provides the core BGP data types shared by every other
// package in this repository: AS numbers, prefixes, AS-paths, routes, and
// the BGP decision process.
//
// The types model the subset of BGP-4 (RFC 4271) that matters for static,
// converged route propagation as used by the AS-routing model of
// Mühlbauer et al., "Building an AS-topology model that captures route
// diversity" (SIGCOMM 2006): path attributes that participate in the
// decision process, AS-path manipulation (prepend stripping, loop
// detection, suffix logic), and a decision process that records the
// elimination step of every losing route so that callers can distinguish a
// route that lost only in the final router-ID tie-break (a "potential
// RIB-Out match" in the paper's terminology) from one that lost earlier.
package bgp

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ASN is an autonomous system number. The 2005-era datasets the paper uses
// are 16-bit, but the type is 32-bit so that the MRT codec can handle
// AS4_PATH attributes (RFC 6793) without loss.
type ASN uint32

// String returns the decimal representation of the ASN ("AS3356" style is
// deliberately avoided: datasets and paper figures use bare numbers).
func (a ASN) String() string { return strconv.FormatUint(uint64(a), 10) }

// RouterID identifies a (quasi-)router. Following §4.5 of the paper, the
// high-order 16 bits carry the AS number and the low-order bits a unique
// per-AS index, so that comparing router IDs implements the paper's
// "lowest IP address" tie-break deterministically.
type RouterID uint32

// MakeRouterID builds a RouterID from an AS number and a per-AS index.
// AS numbers above 16 bits are folded (XOR) into the high half; the paper's
// datasets predate 32-bit ASNs so in practice asn fits.
func MakeRouterID(asn ASN, index uint16) RouterID {
	hi := uint32(asn&0xffff) ^ uint32(asn>>16)
	return RouterID(hi<<16 | uint32(index))
}

// AS returns the AS number encoded in the router ID.
func (r RouterID) AS() ASN { return ASN(uint32(r) >> 16) }

// Index returns the per-AS index encoded in the router ID.
func (r RouterID) Index() uint16 { return uint16(uint32(r) & 0xffff) }

// String renders the router ID as "AS.index", e.g. "3356.2".
func (r RouterID) String() string {
	return strconv.FormatUint(uint64(r.AS()), 10) + "." + strconv.FormatUint(uint64(r.Index()), 10)
}

// Origin is the BGP ORIGIN attribute.
type Origin uint8

// Origin attribute values (RFC 4271 §4.3).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	default:
		return "Origin(" + strconv.Itoa(int(o)) + ")"
	}
}

// Path is an AS-path: the sequence of ASes a route traversed, most recent
// AS first (index 0 is the neighbor that announced the route, the last
// element is the origin AS). A nil or empty Path denotes a locally
// originated route.
//
// Paths are treated as immutable: every operation returns a fresh slice and
// callers must not mutate a Path after sharing it.
type Path []ASN

// ParsePath parses a space-separated AS-path such as "701 1239 24249".
// An empty string yields an empty (locally originated) path.
func ParsePath(s string) (Path, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Path{}, nil
	}
	fields := strings.Fields(s)
	p := make(Path, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bgp: invalid ASN %q in path %q: %w", f, s, err)
		}
		p[i] = ASN(v)
	}
	return p, nil
}

// String renders the path as space-separated AS numbers, neighbor first.
func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// Origin returns the originating AS (last element) and true, or 0 and false
// for an empty path.
func (p Path) Origin() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// First returns the first AS on the path (the announcing neighbor) and
// true, or 0 and false for an empty path.
func (p Path) First() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[0], true
}

// Prepend returns a new path with asn prepended, as performed by a router
// exporting a route over an eBGP session.
func (p Path) Prepend(asn ASN) Path {
	q := make(Path, 0, len(p)+1)
	q = append(q, asn)
	q = append(q, p...)
	return q
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Equal reports whether two paths are element-wise identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// StripPrepend collapses consecutive duplicate ASNs, removing AS-path
// prepending. The paper removes prepending "to prevent distraction from the
// task of route propagation" (§3.1, footnote 1).
func (p Path) StripPrepend() Path {
	if len(p) == 0 {
		return Path{}
	}
	q := make(Path, 0, len(p))
	for i, a := range p {
		if i == 0 || a != p[i-1] {
			q = append(q, a)
		}
	}
	return q
}

// HasLoop reports whether any AS appears more than once after prepending is
// stripped. Looped paths are removed from the AS-topology in §3.1.
func (p Path) HasLoop() bool {
	if len(p) <= 1 {
		return false
	}
	seen := make(map[ASN]struct{}, len(p))
	stripped := p.StripPrepend()
	for _, a := range stripped {
		if _, dup := seen[a]; dup {
			return true
		}
		seen[a] = struct{}{}
	}
	return false
}

// Contains reports whether asn appears anywhere on the path. Routers use
// this for the standard eBGP loop check on import.
func (p Path) Contains(asn ASN) bool {
	for _, a := range p {
		if a == asn {
			return true
		}
	}
	return false
}

// Suffix returns the last n elements of the path (the n hops closest to the
// origin). Suffix(len(p)) is the whole path; Suffix(0) is empty.
// It panics if n is negative or exceeds the path length.
func (p Path) Suffix(n int) Path {
	if n < 0 || n > len(p) {
		panic("bgp: Path.Suffix out of range")
	}
	return p[len(p)-n:]
}

// Key returns a compact map key uniquely identifying the path contents.
// Keys are comparable and hashable; they are not human-readable.
func (p Path) Key() PathKey {
	b := make([]byte, 4*len(p))
	for i, a := range p {
		binary.BigEndian.PutUint32(b[4*i:], uint32(a))
	}
	return PathKey(b)
}

// PathKey is an opaque, comparable encoding of a Path, suitable as a map
// key. Obtain one with Path.Key; decode with Decode.
type PathKey string

// Decode converts the key back into a Path.
func (k PathKey) Decode() Path {
	if len(k)%4 != 0 {
		panic("bgp: corrupt PathKey")
	}
	p := make(Path, len(k)/4)
	for i := range p {
		p[i] = ASN(binary.BigEndian.Uint32([]byte(k[4*i : 4*i+4])))
	}
	return p
}

// Len returns the number of ASes encoded in the key without decoding it.
func (k PathKey) Len() int { return len(k) / 4 }

// Route is a BGP route for a prefix together with the attributes that
// participate in the decision process. Routes are immutable once published
// to a RIB or sent on a session: the simulator shares one route across
// every session it is advertised on and every router that installs it
// unchanged, so policy application copies before modifying, and code
// that is handed a published route (export hooks, RIB and best-route
// accessors) must only read it.
type Route struct {
	// Prefix is a dense index identifying the destination prefix within a
	// simulation (the paper originates one prefix per AS, §4.1). Mapping to
	// real CIDR prefixes, where needed, lives in the dataset layer.
	Prefix PrefixID

	// Path is the AS-path as received (neighbor first, origin last). Empty
	// for locally originated routes.
	Path Path

	// LocalPref is the local-preference attribute; higher wins. The
	// refinement heuristic never sets it (§4.6) but baselines (valley-free
	// policies) and the ablation experiments do.
	LocalPref uint32

	// MED is the multi-exit discriminator; lower wins, and following §4.6
	// the decision process always compares MEDs, even across neighbor ASes.
	MED uint32

	// Origin is the ORIGIN attribute (lower wins).
	Origin Origin

	// Peer is the router ID of the (quasi-)router that announced this
	// route; the final tie-break prefers the lowest announcing router ID.
	// Zero for locally originated routes.
	Peer RouterID

	// IGPCost is the cost of the intra-domain path to the BGP next hop,
	// used for hot-potato routing in the ground-truth router-level
	// simulation. Zero in quasi-router models (no iBGP, §4.6).
	IGPCost uint32

	// EBGP reports whether the route was learned over an eBGP session.
	// Locally originated routes have EBGP=false; so do iBGP-learned routes
	// in the ground-truth simulation.
	EBGP bool
}

// PrefixID is a dense prefix identifier within one simulation universe.
type PrefixID int32

// DefaultLocalPref is the local-preference assigned when no policy sets one
// (Cisco/Juniper default).
const DefaultLocalPref = 100

// DefaultMED is the MED assigned when no policy sets one. The refinement
// heuristic prefers a route by lowering its MED below this value.
const DefaultMED = 100

// Clone returns a copy of the route sharing the (immutable) path.
func (r *Route) Clone() *Route {
	c := *r
	return &c
}

// String renders the route for debugging and logs.
func (r *Route) String() string {
	if r == nil {
		return "<nil route>"
	}
	return fmt.Sprintf("prefix=%d path=[%s] lp=%d med=%d peer=%s", r.Prefix, r.Path, r.LocalPref, r.MED, r.Peer)
}

// SortASNs sorts a slice of ASNs ascending, in place, and returns it.
// Shared helper for deterministic iteration over AS sets.
func SortASNs(asns []ASN) []ASN {
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	return asns
}
