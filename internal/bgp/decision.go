package bgp

// This file implements the BGP decision process (paper §2, Figure 1) as a
// pure function over a set of candidate routes. The process is a sequence
// of elimination steps; the caller learns not only which route won but also
// at which step every other route was eliminated. The paper's "potential
// RIB-Out match" metric (§4.2) is exactly "eliminated at StepRouterID".

// Step identifies a stage of the BGP decision process.
type Step uint8

// Decision process steps in evaluation order.
const (
	// StepNone marks the winning route (it was never eliminated).
	StepNone Step = iota
	// StepLocalPref eliminates routes with lower local-preference.
	StepLocalPref
	// StepASPathLen eliminates routes with longer AS-paths.
	StepASPathLen
	// StepOrigin eliminates routes with a larger ORIGIN value.
	StepOrigin
	// StepMED eliminates routes with higher MED. Following §4.6 of the
	// paper, MEDs are always compared, including across neighbor ASes.
	StepMED
	// StepEBGP eliminates iBGP-learned routes when an eBGP route remains
	// (ground-truth router-level simulation only).
	StepEBGP
	// StepIGPCost eliminates routes with a more expensive intra-domain path
	// to the next hop — hot-potato routing (ground truth only).
	StepIGPCost
	// StepRouterID is the final tie-break: lowest announcing router ID
	// wins. Losing here and only here makes a route a "potential RIB-Out
	// match" in the paper's evaluation metrics.
	StepRouterID
)

// String names the step for reports.
func (s Step) String() string {
	switch s {
	case StepNone:
		return "best"
	case StepLocalPref:
		return "local-pref"
	case StepASPathLen:
		return "as-path-length"
	case StepOrigin:
		return "origin"
	case StepMED:
		return "med"
	case StepEBGP:
		return "ebgp-over-ibgp"
	case StepIGPCost:
		return "igp-cost"
	case StepRouterID:
		return "router-id"
	default:
		return "unknown-step"
	}
}

// DecisionConfig selects which optional steps the decision process runs.
// The quasi-router model (§4.6) uses neither the eBGP/iBGP step nor the IGP
// step: quasi-routers have no iBGP sessions and no intra-domain topology.
type DecisionConfig struct {
	// CompareOrigin enables the ORIGIN step. Off in the paper's model
	// (all routes carry the same origin); on in the ground truth.
	CompareOrigin bool
	// PreferEBGP enables the eBGP-over-iBGP step.
	PreferEBGP bool
	// CompareIGPCost enables the hot-potato IGP-cost step.
	CompareIGPCost bool
}

// QuasiRouterConfig is the decision configuration used by quasi-router
// models: local-pref, AS-path length, always-compare MED, router-ID.
var QuasiRouterConfig = DecisionConfig{}

// GroundTruthConfig is the decision configuration used by the router-level
// ground-truth simulation: the full process including hot-potato routing.
var GroundTruthConfig = DecisionConfig{CompareOrigin: true, PreferEBGP: true, CompareIGPCost: true}

// Compare ranks two routes under the decision process. The process is a
// lexicographic order over the attributes cfg enables, ending in the
// router-ID tie-break, so two routes are ordered by the first step at
// which they differ. Compare returns that step and cmp < 0 when a is
// preferred there, cmp > 0 when b is. Routes that agree at every step
// (possible only between routes from the same peer) give StepNone, 0.
//
// Compare is the single definition of the decision order: Decide, Better
// and the simulator's incremental best-route update are all built on it.
func Compare(cfg DecisionConfig, a, b *Route) (step Step, cmp int) {
	switch {
	case a.LocalPref != b.LocalPref:
		return StepLocalPref, prefer(a.LocalPref > b.LocalPref)
	case len(a.Path) != len(b.Path):
		return StepASPathLen, prefer(len(a.Path) < len(b.Path))
	case cfg.CompareOrigin && a.Origin != b.Origin:
		return StepOrigin, prefer(a.Origin < b.Origin)
	case a.MED != b.MED:
		// Always compared, even across neighbor ASes (§4.6).
		return StepMED, prefer(a.MED < b.MED)
	case cfg.PreferEBGP && a.EBGP != b.EBGP:
		return StepEBGP, prefer(a.EBGP)
	case cfg.CompareIGPCost && a.IGPCost != b.IGPCost:
		return StepIGPCost, prefer(a.IGPCost < b.IGPCost)
	case a.Peer != b.Peer:
		return StepRouterID, prefer(a.Peer < b.Peer)
	}
	return StepNone, 0
}

// prefer maps "a wins" to Compare's sign convention.
func prefer(aWins bool) int {
	if aWins {
		return -1
	}
	return 1
}

// Decide runs the decision process over candidates and returns the index of
// the best route and, for each candidate, the step at which it was
// eliminated (StepNone for the winner). It returns best = -1 for an empty
// candidate set. The candidate order does not affect the outcome: every
// comparison is on totally ordered attributes ending in the unique
// router-ID tie-break (candidates must have distinct Peer IDs, which holds
// by construction since a RIB holds at most one route per session).
//
// The winner is the Compare-minimum of the candidates (the first one, if
// several tie at every step), and every loser is eliminated at the step
// where it first differs from the winner: sequential elimination keeps
// exactly the candidates that agree with the winner on every earlier step.
//
// The elim slice is appended to elimBuf to let hot paths avoid allocation;
// pass nil if you do not care.
func Decide(cfg DecisionConfig, candidates []*Route, elimBuf []Step) (best int, elim []Step) {
	if elimBuf != nil {
		elim = elimBuf[:0]
	} else {
		elim = make([]Step, 0, len(candidates))
	}
	if len(candidates) == 0 {
		return -1, elim
	}
	for i := 1; i < len(candidates); i++ {
		if _, c := Compare(cfg, candidates[i], candidates[best]); c < 0 {
			best = i
		}
	}
	w := candidates[best]
	for _, r := range candidates {
		step, _ := Compare(cfg, r, w)
		elim = append(elim, step)
	}
	return best, elim
}

// Better reports whether Decide picks a from the pair (a, b): a is
// preferred, or the two tie at every step and a wins by coming first.
func Better(cfg DecisionConfig, a, b *Route) bool {
	_, c := Compare(cfg, a, b)
	return c <= 0
}
