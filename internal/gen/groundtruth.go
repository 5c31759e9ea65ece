package gen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/obs"
	"asmodel/internal/relation"
	"asmodel/internal/routersim"
	"asmodel/internal/sim"
)

// CollectionTime is the synthetic "RIB dump" timestamp stamped on
// generated records (the paper's snapshot is Sun Nov 13 2005 07:30 UTC).
const CollectionTime int64 = 1131867000

// installWeirdPolicies applies one schema-violating policy tweak to
// WeirdPolicyFrac of the prefixes. Each tweak is registered with an undo
// closure so that RunAll can revert tweaks that make BGP diverge.
func (in *Internet) installWeirdPolicies() {
	n := int(in.Cfg.WeirdPolicyFrac * float64(len(in.prefixOrigin)))
	if n == 0 {
		return
	}
	// Candidate transit ASes with providers and customers.
	transits := append(append([]bgp.ASN{}, in.Tier2...), in.Tier3...)
	perm := in.rng.Perm(len(in.prefixOrigin))
	applied := 0
	for _, pi := range perm {
		if applied >= n {
			break
		}
		prefix := bgp.PrefixID(pi)
		asn := transits[in.rng.Intn(len(transits))]
		if asn == in.prefixOrigin[pi] {
			continue
		}
		switch in.rng.Intn(3) {
		case 0:
			if in.quirkPreferProvider(prefix, asn) {
				in.Weird[prefix] = fmt.Sprintf("AS%d prefers provider routes for %s", asn, in.PrefixName(prefix))
				applied++
			}
		case 1:
			if in.quirkSelectiveExport(prefix) {
				in.Weird[prefix] = fmt.Sprintf("origin AS%d withholds %s from one provider", in.prefixOrigin[pi], in.PrefixName(prefix))
				applied++
			}
		default:
			if in.quirkLeak(prefix, asn) {
				in.Weird[prefix] = fmt.Sprintf("AS%d leaks %s upward", asn, in.PrefixName(prefix))
				applied++
			}
		}
	}
}

// sessRef pairs a session policy with its stable key. Quirk tweaks hold
// the key, not the policy pointer, so the undo records below stay valid
// across Internet.Clone (each clone resolves the key in its own table).
type sessRef struct {
	key sessKey
	sp  *sessPolicy
}

// sessionsOf returns the eBGP session policies of an AS toward neighbors
// with the given relationship, deterministically ordered.
func (in *Internet) sessionsOf(asn bgp.ASN, rel relation.Rel) []sessRef {
	a := in.RS.AS(asn)
	if a == nil {
		return nil
	}
	var out []sessRef
	for _, r := range a.Routers {
		for _, p := range r.Peers() {
			if !p.EBGP {
				continue
			}
			k := sessKey{p.Local.ID, p.Remote.ID}
			if sp := in.policies[k]; sp != nil && sp.relToRemote == rel {
				out = append(out, sessRef{k, sp})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.local != out[j].key.local {
			return out[i].key.local < out[j].key.local
		}
		return out[i].key.remote < out[j].key.remote
	})
	return out
}

// quirkUndoRec is one recorded weird-policy tweak in undoable form: which
// per-prefix override map of which session to clear. Undo state is plain
// data rather than closures so that (a) Internet.Clone can rebind the
// records to the clone's own policy table and (b) a revert decided on a
// worker's clone can be replayed verbatim on the canonical Internet — the
// determinism rule behind parallel RunAll (DESIGN.md §7).
type quirkUndoRec struct {
	kind undoKind
	key  sessKey
}

type undoKind uint8

const (
	undoLPOverride undoKind = iota // clear sessPolicy.lpOverride[prefix]
	undoExpDeny                    // clear sessPolicy.expDeny[prefix]
	undoLeak                       // clear sessPolicy.leak[prefix]
)

// revertQuirks rolls back every weird-policy tweak recorded for the
// prefix and updates the Weird/QuirksReverted bookkeeping, reporting
// whether there was anything to revert. RunAll calls it when a quirk
// makes BGP diverge; the parallel path replays it on the canonical
// Internet in prefix order so sequential and parallel runs leave
// identical state.
func (in *Internet) revertQuirks(prefix bgp.PrefixID) bool {
	recs := in.quirkUndo[prefix]
	if len(recs) == 0 {
		return false
	}
	for _, rec := range recs {
		sp := in.policies[rec.key]
		if sp == nil {
			continue
		}
		switch rec.kind {
		case undoLPOverride:
			delete(sp.lpOverride, prefix)
		case undoExpDeny:
			delete(sp.expDeny, prefix)
		case undoLeak:
			delete(sp.leak, prefix)
		}
	}
	delete(in.quirkUndo, prefix)
	delete(in.Weird, prefix)
	in.QuirksReverted++
	return true
}

// quirkPreferProvider makes asn prefer provider-learned routes for the
// prefix (local-pref inversion).
func (in *Internet) quirkPreferProvider(prefix bgp.PrefixID, asn bgp.ASN) bool {
	provSessions := in.sessionsOf(asn, relation.Customer) // I am the customer
	if len(provSessions) == 0 {
		return false
	}
	for _, s := range provSessions {
		s.sp.lpOverride[prefix] = relation.LPCustomer + 10
		in.quirkUndo[prefix] = append(in.quirkUndo[prefix], quirkUndoRec{undoLPOverride, s.key})
	}
	return true
}

// quirkSelectiveExport makes the origin AS withhold its prefix from one of
// its providers (selective advertisement). Requires >= 2 provider
// sessions so the prefix stays globally reachable.
func (in *Internet) quirkSelectiveExport(prefix bgp.PrefixID) bool {
	origin := in.prefixOrigin[prefix]
	provSessions := in.sessionsOf(origin, relation.Customer)
	if len(provSessions) < 2 {
		return false
	}
	s := provSessions[in.rng.Intn(len(provSessions))]
	s.sp.expDeny[prefix] = true
	in.quirkUndo[prefix] = append(in.quirkUndo[prefix], quirkUndoRec{undoExpDeny, s.key})
	return true
}

// quirkLeak makes asn export the prefix to providers/peers even when it
// was not learned from a customer (a controlled route leak).
func (in *Internet) quirkLeak(prefix bgp.PrefixID, asn bgp.ASN) bool {
	var sessions []sessRef
	sessions = append(sessions, in.sessionsOf(asn, relation.Customer)...) // toward providers
	sessions = append(sessions, in.sessionsOf(asn, relation.Peer)...)
	if len(sessions) == 0 {
		return false
	}
	s := sessions[in.rng.Intn(len(sessions))]
	s.sp.leak[prefix] = true
	in.quirkUndo[prefix] = append(in.quirkUndo[prefix], quirkUndoRec{undoLeak, s.key})
	return true
}

// pickVantagePoints selects observation feeds: every tier-1 AS first, then
// tier-2, tier-3 and stubs until NumVantageASes is reached, with 1..Max
// router feeds per chosen AS.
func (in *Internet) pickVantagePoints() {
	order := append([]bgp.ASN{}, in.Tier1...)
	order = append(order, shuffled(in.rng, in.Tier2)...)
	order = append(order, shuffled(in.rng, in.Tier3)...)
	order = append(order, shuffled(in.rng, in.Stubs)...)
	count := in.Cfg.NumVantageASes
	if count > len(order) {
		count = len(order)
	}
	for _, asn := range order[:count] {
		a := in.RS.AS(asn)
		nFeeds := min(in.Cfg.MaxVantagePerAS, a.NumRouters())
		for _, ri := range in.rng.Perm(a.NumRouters())[:nFeeds] {
			in.vps = append(in.vps, routersim.VantagePoint{
				ID:     dataset.ObsPointID(fmt.Sprintf("op%d-%d", asn, ri)),
				Router: a.Routers[ri],
			})
		}
	}
	routersim.SortVantagePoints(in.vps)
}

func shuffled(rng *rand.Rand, s []bgp.ASN) []bgp.ASN {
	out := make([]bgp.ASN, len(s))
	copy(out, s)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// RunAll simulates every prefix on the canonical network, one at a time,
// and returns the ground-truth dataset of vantage-point observations (one
// record per vantage point per reachable prefix, in prefix order). Weird
// policies that cause divergence are reverted and counted in
// QuirksReverted so the returned routing is always a stable one.
// RunAllParallel produces a byte-identical dataset on a worker pool.
func (in *Internet) RunAll() (*dataset.Dataset, error) {
	return in.runAll(context.Background())
}

// runAll is the sequential generation body; ctx carries cancellation and
// the current obs span (RunAllParallel's workers<=1 fallback routes here
// so spans and cancellation survive the fallback).
func (in *Internet) runAll(ctx context.Context) (*dataset.Dataset, error) {
	defer obsGenRun()()
	ctx, span := obs.StartSpan(ctx, "gen.run_all",
		obs.A("prefixes", len(in.prefixOrigin)), obs.VolatileAttr("workers", 1))
	defer span.End()
	ds := &dataset.Dataset{}
	for pi := range in.prefixOrigin {
		prefix := bgp.PrefixID(pi)
		var ps *obs.Span
		if span.SampledPrefix(pi) {
			ps = span.StartChild("prefix", obs.A("prefix", in.PrefixName(prefix)))
		}
		reverted, err := in.runPrefixRevertible(ctx, prefix)
		if err != nil {
			ps.End()
			return nil, err
		}
		before := len(ds.Records)
		routersim.Observe(ds, in.PrefixName(prefix), CollectionTime-7200, in.vps)
		ps.Set(obs.A("reverted", reverted), obs.A("records", len(ds.Records)-before))
		ps.End()
	}
	span.Set(obs.A("records", len(ds.Records)))
	return ds, nil
}

// runPrefixRevertible simulates one prefix, reverting its weird-policy
// tweaks and retrying once if they made BGP diverge. It reports whether a
// revert happened — the parallel path uses that to replay the revert on
// the canonical Internet.
func (in *Internet) runPrefixRevertible(ctx context.Context, prefix bgp.PrefixID) (reverted bool, err error) {
	err = in.RS.RunPrefixContext(ctx, prefix, in.prefixOrigin[prefix])
	if errors.Is(err, sim.ErrDiverged) && in.revertQuirks(prefix) {
		reverted = true
		err = in.RS.RunPrefixContext(ctx, prefix, in.prefixOrigin[prefix])
	}
	if err != nil {
		return reverted, fmt.Errorf("gen: prefix %s: %w", in.PrefixName(prefix), err)
	}
	return reverted, nil
}

// RunOne re-simulates a single prefix in the ground truth on the
// canonical network, leaving the converged state in place for inspection
// with ObservedPathSet (used by what-if comparisons after topology
// edits). Previous per-prefix run state is discarded, so RunOne behaves
// identically whether the preceding RunAll was sequential or parallel.
func (in *Internet) RunOne(prefix bgp.PrefixID) error {
	return in.RS.RunPrefix(prefix, in.prefixOrigin[prefix])
}

// DisableASLink administratively disables every eBGP session between two
// ASes in the ground-truth Internet, returning the number of sessions
// taken down. Used to validate what-if predictions: the same link can be
// removed from both the model and the ground truth, and the outcomes
// compared.
func (in *Internet) DisableASLink(a, b bgp.ASN) int {
	return in.setASLinkDisabled(a, b, true)
}

// EnableASLink re-enables previously disabled sessions between two ASes.
func (in *Internet) EnableASLink(a, b bgp.ASN) int {
	return in.setASLinkDisabled(a, b, false)
}

func (in *Internet) setASLinkDisabled(a, b bgp.ASN, down bool) int {
	asA := in.RS.AS(a)
	if asA == nil {
		return 0
	}
	n := 0
	for _, r := range asA.Routers {
		for _, p := range r.Peers() {
			if p.Remote.AS != b {
				continue
			}
			p.SetDisabled(down)
			if rev := p.Remote.PeerTo(r.ID); rev != nil {
				rev.SetDisabled(down)
			}
			n++
		}
	}
	return n
}

// ObservedPathSet returns, per vantage AS, the distinct best AS-paths
// currently selected by that AS's vantage routers for the last-run
// prefix, each prepended with the vantage AS (dataset convention).
func (in *Internet) ObservedPathSet() map[bgp.ASN]map[string]bool {
	out := make(map[bgp.ASN]map[string]bool)
	for _, vp := range in.vps {
		best := vp.Router.Best()
		if best == nil {
			continue
		}
		set := out[vp.Router.AS]
		if set == nil {
			set = make(map[string]bool)
			out[vp.Router.AS] = set
		}
		set[best.Path.Prepend(vp.Router.AS).String()] = true
	}
	return out
}
