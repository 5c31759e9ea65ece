// Package sim implements a static BGP route-propagation engine equivalent,
// for the purposes of this repository, to the C-BGP simulator the paper
// builds on (§4.1): it computes the steady-state route choice of every
// (quasi-)router after BGP message exchange has converged, one prefix at a
// time, over a topology in which an AS may contain any number of routers
// and BGP sessions may connect arbitrary router pairs.
//
// The engine supports the two configurations the paper needs:
//
//   - Quasi-router models (bgp.QuasiRouterConfig): no iBGP, no IGP; the
//     decision process is local-pref, AS-path length, always-compare MED,
//     and the lowest-router-ID tie-break. Policies are per-prefix import
//     actions (deny / set MED / set local-pref) and per-prefix export
//     denies — exactly the vocabulary of the refinement heuristic (§4.6).
//
//   - Ground truth (bgp.GroundTruthConfig): full decision process with
//     eBGP-over-iBGP and hot-potato IGP-cost steps, full-mesh iBGP
//     semantics (iBGP-learned routes are not re-advertised over iBGP), and
//     an IGP-cost callback, used by the router-level synthetic Internet.
//
// Propagation is event-driven and deterministic: a FIFO queue of session
// deliveries, routers seeded in sorted order, and no reliance on map
// iteration order. A message budget bounds non-convergent policy systems
// (ErrDiverged), which the paper reports local-pref-based refinement can
// produce (§4.6).
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/obs"
)

// ErrDiverged is returned by Run when message count exceeds the budget,
// indicating the policy system has no stable solution (or converges too
// slowly to distinguish from one). The error returned by Run is a
// *DivergenceError wrapping this sentinel; match with errors.Is.
var ErrDiverged = errors.New("sim: BGP propagation did not converge (message budget exhausted)")

// DivergenceError reports the context of a divergence: which prefix blew
// the budget and how much work was done. It unwraps to ErrDiverged.
type DivergenceError struct {
	// Prefix is the prefix whose propagation did not converge.
	Prefix bgp.PrefixID
	// Messages is the number of messages delivered before giving up.
	Messages int
	// Budget is the message budget that was exhausted.
	Budget int
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("sim: BGP propagation of prefix %d did not converge: %d messages delivered, budget %d exhausted",
		e.Prefix, e.Messages, e.Budget)
}

// Unwrap makes errors.Is(err, ErrDiverged) succeed.
func (e *DivergenceError) Unwrap() error { return ErrDiverged }

// Propagation metrics, registered on the obs default registry. Counters
// are batched per Run (not per message), so the hot loop stays free of
// atomic operations.
var (
	mRuns      = obs.GetCounter("sim_runs_total", "prefix propagation runs")
	mMsgs      = obs.GetCounter("sim_messages_delivered_total", "BGP messages delivered across all runs")
	mInstalled = obs.GetCounter("sim_routes_installed_total", "Adj-RIB-In entries installed (nil -> route)")
	mReplaced  = obs.GetCounter("sim_routes_replaced_total", "Adj-RIB-In entries replaced (route -> different route)")
	mWithdrawn = obs.GetCounter("sim_withdrawals_total", "Adj-RIB-In entries withdrawn (route -> nil)")
	mBestFlips = obs.GetCounter("sim_best_changes_total", "best-route changes that triggered re-export")
	mDiverged  = obs.GetCounter("sim_diverged_total", "runs that exhausted the message budget")
	mRunMsgs   = obs.GetHistogram("sim_run_messages", "messages delivered per run",
		obs.ExpBuckets(1, 4, 12))
	mQueueHW = obs.GetHistogram("sim_queue_highwater", "per-run delivery-queue high-water mark",
		obs.ExpBuckets(1, 4, 10))
	mRunTime = obs.GetHistogram("sim_run_seconds", "per-prefix convergence wall time",
		obs.ExpBuckets(1e-6, 10, 9))
	mBudgetRatio = obs.GetHistogram("sim_budget_used_ratio", "fraction of the message budget used per run (divergence-guard proximity)",
		obs.LinearBuckets(0.1, 0.1, 10))
)

// RunStats is the per-Run instrumentation snapshot: how much work the
// last propagation did and how close it came to the divergence guard.
type RunStats struct {
	// Prefix is the prefix of the run.
	Prefix bgp.PrefixID
	// Messages is the number of messages delivered.
	Messages int
	// Budget is the message budget the run operated under.
	Budget int
	// QueueHighWater is the maximum delivery-queue depth reached.
	QueueHighWater int
	// RoutesInstalled counts Adj-RIB-In transitions nil -> route.
	RoutesInstalled int
	// RoutesReplaced counts Adj-RIB-In transitions route -> route.
	RoutesReplaced int
	// RoutesWithdrawn counts Adj-RIB-In transitions route -> nil.
	RoutesWithdrawn int
	// BestChanges counts best-route changes that triggered re-export.
	BestChanges int
	// Diverged reports whether the run exhausted the budget.
	Diverged bool
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// BudgetUsed returns Messages/Budget — how close the run came to the
// divergence guard (1.0 means it tripped).
func (s RunStats) BudgetUsed() float64 {
	if s.Budget == 0 {
		return 0
	}
	return float64(s.Messages) / float64(s.Budget)
}

// Network is a topology of routers and BGP sessions over which prefixes
// are propagated one at a time. Not safe for concurrent use.
type Network struct {
	cfg     bgp.DecisionConfig
	routers []*Router
	byID    map[bgp.RouterID]*Router

	// IGPCost, if non-nil, returns the intra-domain cost from router a to
	// router b; it is consulted when a route is learned over an iBGP
	// session (the iBGP next hop is the announcing router). A nil callback
	// means cost 0 everywhere.
	IGPCost func(a, b bgp.RouterID) uint32

	// MaxMessages bounds the number of delivered messages per Run. Zero
	// selects an automatic budget proportional to the session count.
	MaxMessages int

	sessions int
	queue    []message
	qHead    int
	origins  []bgp.RouterID // per-run scratch: the sorted origins

	prefix bgp.PrefixID
	ran    bool
	stats  RunStats

	// Touched-router tracking: gen is bumped by every reset (the start of
	// every Run) and touched collects, in first-touch order, every router
	// that participated in the current run — origins at seeding time plus
	// every router that received a delivery. The generation stamp on each
	// router makes marking O(1) without a per-run map clear, and reset
	// clears only the routers on the list.
	gen     uint64
	touched []*Router
}

type message struct {
	to      *Router
	peerIdx int
	route   *bgp.Route // nil means withdraw
}

// Router is a (quasi-)router in the network.
type Router struct {
	// ID is the router's unique identifier; its high bits carry the ASN
	// (the paper's IP-address convention, §4.5) so that ID comparison
	// implements the final tie-break.
	ID bgp.RouterID
	// AS is the autonomous system the router belongs to.
	AS bgp.ASN

	net   *Network
	index int // position in net.routers
	peers []*Peer
	bySrc map[bgp.RouterID]int // remote router ID -> peer index

	ribIn []*bgp.Route // per peer index; nil = no route
	local *bgp.Route   // locally originated route for the current prefix
	best  *bgp.Route
	// bestSlot is the candidate slot best came from: -1 for the local
	// route, else its ribIn index. Meaningful only while best != nil.
	bestSlot int
	adv      []*bgp.Route // last advertisement sent per peer (post-export-transform)

	touchGen uint64 // generation of the run that last touched this router
}

// Peer is one direction of a BGP session: the state and policies that the
// Local router applies on this session. Sessions are created in pairs by
// Network.Connect.
type Peer struct {
	Local  *Router
	Remote *Router
	// EBGP reports whether this is an inter-AS session.
	EBGP bool

	remoteIdx int // index of the reverse direction in Remote.peers
	localIdx  int // index of this direction in Local.peers

	importActs map[bgp.PrefixID]importAction
	exportDeny map[bgp.PrefixID]struct{}
	disabled   bool

	// ImportHook, if non-nil, runs after per-prefix import actions; it may
	// modify the route in place or return false to deny it. It always
	// receives a private copy of the inbound route. Used by the
	// relationship-based baseline to assign local-pref by business
	// relationship.
	ImportHook func(r *bgp.Route) bool
	// ExportHook, if non-nil, runs before a best route is advertised to
	// Remote; returning false suppresses the advertisement. Used to
	// implement valley-free export rules. It receives the router's
	// published best route, which other sessions and routers may share:
	// it must only read it.
	ExportHook func(r *bgp.Route) bool

	// Client marks this iBGP session direction as leading to a
	// route-reflector client of Local (RFC 4456). A router with at least
	// one Client session acts as a route reflector: it re-advertises
	// iBGP-learned routes to its clients, and routes learned FROM a
	// client to every iBGP peer. Ignored on eBGP sessions.
	Client bool
}

type importAction struct {
	deny   bool
	hasMED bool
	med    uint32
	hasLP  bool
	lp     uint32
}

// NewNetwork creates an empty network using the given decision
// configuration.
func NewNetwork(cfg bgp.DecisionConfig) *Network {
	return &Network{cfg: cfg, byID: make(map[bgp.RouterID]*Router)}
}

// Config returns the decision configuration the network runs with.
func (n *Network) Config() bgp.DecisionConfig { return n.cfg }

// NumRouters returns the number of routers in the network.
func (n *Network) NumRouters() int { return len(n.routers) }

// NumSessions returns the number of (bidirectional) BGP sessions.
func (n *Network) NumSessions() int { return n.sessions }

// Routers returns all routers, ordered by creation.
func (n *Network) Routers() []*Router { return n.routers }

// Router returns the router with the given ID, or nil.
func (n *Network) Router(id bgp.RouterID) *Router { return n.byID[id] }

// AddRouter creates a router with the canonical RouterID for (asn, index).
// It returns an error if the ID is already taken.
func (n *Network) AddRouter(asn bgp.ASN, index uint16) (*Router, error) {
	id := bgp.MakeRouterID(asn, index)
	if _, dup := n.byID[id]; dup {
		return nil, fmt.Errorf("sim: duplicate router %s", id)
	}
	r := &Router{ID: id, AS: asn, net: n, index: len(n.routers), bySrc: make(map[bgp.RouterID]int)}
	n.routers = append(n.routers, r)
	n.byID[id] = r
	return r, nil
}

// Connect establishes a BGP session between a and b, returning the two
// directions (a's view, b's view). The session is eBGP when the routers
// belong to different ASes and iBGP otherwise. At most one session may
// exist between a pair of routers.
func (n *Network) Connect(a, b *Router) (*Peer, *Peer, error) {
	if a == b {
		return nil, nil, fmt.Errorf("sim: cannot connect router %s to itself", a.ID)
	}
	if _, dup := a.bySrc[b.ID]; dup {
		return nil, nil, fmt.Errorf("sim: session %s<->%s already exists", a.ID, b.ID)
	}
	ebgp := a.AS != b.AS
	pa := &Peer{Local: a, Remote: b, EBGP: ebgp}
	pb := &Peer{Local: b, Remote: a, EBGP: ebgp}
	pa.localIdx = len(a.peers)
	pb.localIdx = len(b.peers)
	pa.remoteIdx = pb.localIdx
	pb.remoteIdx = pa.localIdx
	a.bySrc[b.ID] = pa.localIdx
	b.bySrc[a.ID] = pb.localIdx
	a.peers = append(a.peers, pa)
	b.peers = append(b.peers, pb)
	a.ribIn = append(a.ribIn, nil)
	b.ribIn = append(b.ribIn, nil)
	a.adv = append(a.adv, nil)
	b.adv = append(b.adv, nil)
	n.sessions++
	return pa, pb, nil
}

// Index returns the router's position in Network.Routers().
func (r *Router) Index() int { return r.index }

// Peers returns the router's session endpoints (its side).
func (r *Router) Peers() []*Peer { return r.peers }

// Reverse returns the other direction of p's session: Remote's side.
func (p *Peer) Reverse() *Peer { return p.Remote.peers[p.remoteIdx] }

// PeerTo returns r's session direction toward the router with the given
// ID, or nil if no session exists.
func (r *Router) PeerTo(remote bgp.RouterID) *Peer {
	if i, ok := r.bySrc[remote]; ok {
		return r.peers[i]
	}
	return nil
}

// --- Policy management -----------------------------------------------

// DenyImport drops all routes for the prefix arriving on this session.
func (p *Peer) DenyImport(prefix bgp.PrefixID) {
	a := p.importAct(prefix)
	a.deny = true
	p.importActs[prefix] = a
}

// SetImportMED makes routes for the prefix arriving on this session carry
// the given MED (the refinement heuristic's ranking mechanism, §4.6).
func (p *Peer) SetImportMED(prefix bgp.PrefixID, med uint32) {
	a := p.importAct(prefix)
	a.hasMED, a.med = true, med
	p.importActs[prefix] = a
}

// SetImportLocalPref makes routes for the prefix arriving on this session
// carry the given local-pref (used by baselines and ablations only).
func (p *Peer) SetImportLocalPref(prefix bgp.PrefixID, lp uint32) {
	a := p.importAct(prefix)
	a.hasLP, a.lp = true, lp
	p.importActs[prefix] = a
}

// ClearImport removes all per-prefix import actions for the prefix.
func (p *Peer) ClearImport(prefix bgp.PrefixID) {
	if p.importActs != nil {
		delete(p.importActs, prefix)
	}
}

func (p *Peer) importAct(prefix bgp.PrefixID) importAction {
	if p.importActs == nil {
		p.importActs = make(map[bgp.PrefixID]importAction)
	}
	return p.importActs[prefix]
}

// DenyExport suppresses advertisements of the prefix from Local to Remote.
// This is the refinement heuristic's "filter at the announcing neighbor".
func (p *Peer) DenyExport(prefix bgp.PrefixID) {
	if p.exportDeny == nil {
		p.exportDeny = make(map[bgp.PrefixID]struct{})
	}
	p.exportDeny[prefix] = struct{}{}
}

// AllowExport removes a previously installed export deny (filter deletion,
// §4.6 / Figure 7).
func (p *Peer) AllowExport(prefix bgp.PrefixID) {
	if p.exportDeny != nil {
		delete(p.exportDeny, prefix)
	}
}

// ExportDenied reports whether an export deny is installed for the prefix.
func (p *Peer) ExportDenied(prefix bgp.PrefixID) bool {
	_, ok := p.exportDeny[prefix]
	return ok
}

// --- Propagation ------------------------------------------------------

// Run propagates a single prefix originated by the given routers until
// convergence. Previous per-prefix state is discarded. Origins are
// announced in sorted router-ID order for determinism. Run returns
// ErrDiverged if the message budget is exhausted.
func (n *Network) Run(prefix bgp.PrefixID, origins []bgp.RouterID) error {
	return n.RunBudget(context.Background(), prefix, origins, 0)
}

// RunContext is Run with cancellation: the context is polled
// periodically inside the delivery loop, and a canceled or expired
// context aborts the run with an error wrapping ctx.Err() (match with
// errors.Is(err, context.Canceled) / context.DeadlineExceeded). An
// aborted run leaves the network's per-prefix state partially
// propagated; the next Run resets it.
func (n *Network) RunContext(ctx context.Context, prefix bgp.PrefixID, origins []bgp.RouterID) error {
	return n.RunBudget(ctx, prefix, origins, 0)
}

// ctxCheckInterval is how many delivered messages pass between context
// polls; a power of two so the check compiles to a mask.
const ctxCheckInterval = 512

// RunBudget is RunContext with an explicit message budget overriding
// MaxMessages for this run only (0 keeps the network's configured or
// automatic budget). The refinement heuristic uses it to retry
// quarantined prefixes under an escalated budget.
func (n *Network) RunBudget(ctx context.Context, prefix bgp.PrefixID, origins []bgp.RouterID, budget int) error {
	start := time.Now()
	n.reset()
	n.prefix = prefix
	n.ran = true
	n.stats = RunStats{Prefix: prefix}

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: propagation of prefix %d not started: %w", prefix, err)
	}

	sorted := append(n.origins[:0], origins...)
	slices.Sort(sorted)
	n.origins = sorted

	for _, id := range sorted {
		r := n.byID[id]
		if r == nil {
			return fmt.Errorf("sim: unknown origin router %s", id)
		}
		n.markTouched(r)
		r.local = &bgp.Route{
			Prefix:    prefix,
			Path:      bgp.Path{},
			LocalPref: bgp.DefaultLocalPref,
			MED:       bgp.DefaultMED,
		}
		r.recomputeBest()
		r.exportAll()
	}

	if budget == 0 {
		budget = n.MaxMessages
	}
	if budget == 0 {
		budget = 1000 + 200*n.sessions
	}
	n.stats.Budget = budget
	msgs := 0
	for n.qHead < len(n.queue) {
		m := n.queue[n.qHead]
		n.queue[n.qHead] = message{}
		n.qHead++
		msgs++
		if msgs > budget {
			n.drainQueue()
			n.stats.Messages = msgs
			n.stats.Diverged = true
			n.finishRun(start)
			return &DivergenceError{Prefix: prefix, Messages: msgs, Budget: budget}
		}
		if msgs%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				n.drainQueue()
				n.stats.Messages = msgs
				n.finishRun(start)
				return fmt.Errorf("sim: propagation of prefix %d interrupted after %d messages: %w", prefix, msgs, err)
			}
		}
		m.to.deliver(m.peerIdx, m.route)
	}
	n.drainQueue()
	n.stats.Messages = msgs
	n.finishRun(start)
	return nil
}

// finishRun stamps the elapsed time and publishes the run's work to the
// obs registry in one batch.
func (n *Network) finishRun(start time.Time) {
	n.stats.Elapsed = time.Since(start)
	mRuns.Inc()
	mMsgs.Add(int64(n.stats.Messages))
	mInstalled.Add(int64(n.stats.RoutesInstalled))
	mReplaced.Add(int64(n.stats.RoutesReplaced))
	mWithdrawn.Add(int64(n.stats.RoutesWithdrawn))
	mBestFlips.Add(int64(n.stats.BestChanges))
	if n.stats.Diverged {
		mDiverged.Inc()
	}
	mRunMsgs.ObserveInt(n.stats.Messages)
	mQueueHW.ObserveInt(n.stats.QueueHighWater)
	mRunTime.ObserveDuration(n.stats.Elapsed)
	mBudgetRatio.Observe(n.stats.BudgetUsed())
}

// MessagesDelivered returns the number of messages processed by the most
// recent Run — a direct measure of convergence work.
func (n *Network) MessagesDelivered() int { return n.stats.Messages }

// LastRunStats returns the instrumentation snapshot of the most recent
// Run.
func (n *Network) LastRunStats() RunStats { return n.stats }

// Prefix returns the prefix of the most recent Run.
func (n *Network) Prefix() bgp.PrefixID { return n.prefix }

func (n *Network) drainQueue() {
	n.queue = n.queue[:0]
	n.qHead = 0
}

// reset clears the per-prefix state of the last run. Only the routers
// that run touched can hold any: every other router neither received a
// delivery nor originated.
func (n *Network) reset() {
	for _, r := range n.touched {
		clear(r.ribIn)
		clear(r.adv)
		r.local = nil
		r.best = nil
	}
	n.drainQueue()
	n.gen++
	n.touched = n.touched[:0]
}

// markTouched records r as a participant of the current run (idempotent
// per run via the generation stamp).
func (n *Network) markTouched(r *Router) {
	if r.touchGen != n.gen {
		r.touchGen = n.gen
		n.touched = append(n.touched, r)
	}
}

func (n *Network) enqueue(m message) {
	// Compact the ring occasionally so memory stays bounded.
	if n.qHead > 4096 && n.qHead*2 > len(n.queue) {
		copied := copy(n.queue, n.queue[n.qHead:])
		n.queue = n.queue[:copied]
		n.qHead = 0
	}
	n.queue = append(n.queue, m)
	if depth := len(n.queue) - n.qHead; depth > n.stats.QueueHighWater {
		n.stats.QueueHighWater = depth
	}
}

// deliver processes one inbound message on peers[peerIdx].
//
// The best route is updated incrementally. The decision process is a
// total order (bgp.Compare) with candidates ranked local route first,
// then RIB-In in session order on a full tie, and the best is the
// minimum of that order. Replacing a slot that did not hold the best can
// only lower the minimum to the new route, so one comparison decides it;
// only when the best's own slot changes is the minimum lost, and then
// the candidates are rescanned.
func (r *Router) deliver(peerIdx int, in *bgp.Route) {
	r.net.markTouched(r)
	p := r.peers[peerIdx]
	rt := r.applyImport(p, in)
	old := r.ribIn[peerIdx]
	if routesEqual(old, rt) {
		return
	}
	switch {
	case old == nil:
		r.net.stats.RoutesInstalled++
	case rt == nil:
		r.net.stats.RoutesWithdrawn++
	default:
		r.net.stats.RoutesReplaced++
	}
	r.ribIn[peerIdx] = rt
	oldBest := r.best
	switch {
	case oldBest != nil && r.bestSlot == peerIdx:
		r.recomputeBest()
	case rt != nil && r.beatsBest(rt, peerIdx):
		r.best, r.bestSlot = rt, peerIdx
	default:
		return
	}
	if !routesEqual(oldBest, r.best) {
		r.net.stats.BestChanges++
		r.exportAll()
	}
}

// applyImport runs the import pipeline: eBGP loop check, per-prefix
// actions, hook, and iBGP/eBGP attribute fixups. It returns nil when the
// route is denied (treated as a withdrawal). The inbound route is shared
// with its sender, so it is copied only when the pipeline changes it or
// a hook needs a private copy.
func (r *Router) applyImport(p *Peer, in *bgp.Route) *bgp.Route {
	if in == nil || p.disabled {
		return nil
	}
	if p.EBGP && in.Path.Contains(r.AS) {
		return nil // standard eBGP loop rejection
	}
	a := p.importActs[in.Prefix]
	if a.deny {
		return nil
	}
	rt := in
	if p.ImportHook != nil || (a.hasMED && a.med != in.MED) || (a.hasLP && a.lp != in.LocalPref) {
		rt = in.Clone()
		if a.hasMED {
			rt.MED = a.med
		}
		if a.hasLP {
			rt.LocalPref = a.lp
		}
		if p.ImportHook != nil && !p.ImportHook(rt) {
			return nil
		}
	}
	cost := rt.IGPCost
	if p.EBGP {
		cost = 0
	} else if r.net.IGPCost != nil {
		cost = r.net.IGPCost(r.ID, rt.Peer)
	}
	if rt.EBGP != p.EBGP || rt.IGPCost != cost {
		if rt == in {
			rt = in.Clone()
		}
		rt.EBGP, rt.IGPCost = p.EBGP, cost
	}
	return rt
}

// beatsBest reports whether rt, a candidate in the given slot (-1 for the
// local route), ranks before the current best: it is preferred by the
// decision process, or ties it at every step from an earlier slot.
func (r *Router) beatsBest(rt *bgp.Route, slot int) bool {
	if r.best == nil {
		return true
	}
	_, c := bgp.Compare(r.net.cfg, rt, r.best)
	return c < 0 || (c == 0 && slot < r.bestSlot)
}

// recomputeBest rescans the local route and RIB-In for the best route.
func (r *Router) recomputeBest() {
	r.best, r.bestSlot = r.local, -1
	for i, rt := range r.ribIn {
		if rt != nil && r.beatsBest(rt, i) {
			r.best, r.bestSlot = rt, i
		}
	}
}

// exportAll (re-)advertises the current best route to every peer, sending
// only when the advertisement differs from the last one sent on that
// session (including withdrawals when the route becomes unexportable).
// The advertisement is the same route on every eBGP session, and on every
// iBGP one, so each is built at most once per call and shared by every
// session (and every receiver) it goes to.
func (r *Router) exportAll() {
	best := r.best
	// from is the session an iBGP-learned best arrived on: the iBGP
	// re-advertisement rules depend on it.
	var from *Peer
	ibgpLearned := best != nil && !best.EBGP && best != r.local
	if ibgpLearned {
		from = r.PeerTo(best.Peer)
	}
	var ebgpAdv, ibgpAdv *bgp.Route
	for i, p := range r.peers {
		var out *bgp.Route
		if r.exportable(p, ibgpLearned, from) {
			if p.EBGP {
				if ebgpAdv == nil {
					ebgpAdv = &bgp.Route{
						Prefix:    best.Prefix,
						Path:      best.Path.Prepend(r.AS),
						LocalPref: bgp.DefaultLocalPref,
						MED:       bgp.DefaultMED,
						Origin:    best.Origin,
						Peer:      r.ID,
						EBGP:      true,
					}
				}
				out = ebgpAdv
			} else {
				// iBGP: attributes propagate unchanged; announcing router
				// becomes the next hop (next-hop-self at the ingress
				// border router).
				if ibgpAdv == nil {
					ibgpAdv = &bgp.Route{
						Prefix:    best.Prefix,
						Path:      best.Path,
						LocalPref: best.LocalPref,
						MED:       best.MED,
						Origin:    best.Origin,
						Peer:      r.ID,
					}
				}
				out = ibgpAdv
			}
		}
		if routesEqual(r.adv[i], out) {
			continue
		}
		r.adv[i] = out
		r.net.enqueue(message{to: p.Remote, peerIdx: p.remoteIdx, route: out})
	}
}

// exportable reports whether the best route may be advertised to peer p.
// ibgpLearned and from describe the best as exportAll computed them.
func (r *Router) exportable(p *Peer, ibgpLearned bool, from *Peer) bool {
	best := r.best
	if best == nil || p.disabled {
		return false
	}
	// iBGP re-advertisement rule: in a full mesh an iBGP-learned route is
	// never re-advertised over iBGP; a route reflector (RFC 4456)
	// additionally reflects iBGP routes to its clients, and routes
	// learned from a client to everyone.
	if !p.EBGP && ibgpLearned {
		fromClient := from != nil && from.Client
		if !p.Client && !fromClient {
			return false
		}
		if from != nil && from.Remote == p.Remote {
			return false // never reflect a route back to its announcer
		}
	}
	if _, deny := p.exportDeny[best.Prefix]; deny {
		return false
	}
	return p.ExportHook == nil || p.ExportHook(best)
}

// routesEqual compares the wire-visible attributes of two routes (or nils).
func routesEqual(a, b *bgp.Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix &&
		a.LocalPref == b.LocalPref &&
		a.MED == b.MED &&
		a.Origin == b.Origin &&
		a.Peer == b.Peer &&
		a.EBGP == b.EBGP &&
		a.Path.Equal(b.Path)
}

// --- Post-convergence inspection ---------------------------------------

// Best returns the router's selected best route for the last Run prefix,
// or nil if it selected none.
func (r *Router) Best() *bgp.Route { return r.best }

// Slot values BestSlot returns besides an index into Peers().
const (
	LocalSlot = -1 // the best is the locally originated route
	NoSlot    = -2 // the router selected no route
)

// BestSlot returns where the router's best route for the last Run
// prefix came from: the index into Peers() of the session it was learned
// on, LocalSlot, or NoSlot. In a converged network the learned best is
// the session's remote router's best with that router's AS prepended, so
// the best slots of all routers describe every best path: the prefix's
// routing tree.
func (r *Router) BestSlot() int {
	if r.best == nil {
		return NoSlot
	}
	return r.bestSlot
}

// Local returns the router's locally originated route, or nil.
func (r *Router) Local() *bgp.Route { return r.local }

// RIBIn returns the non-nil entries of the router's Adj-RIB-In along with
// the peer each was learned from, in session order.
func (r *Router) RIBIn() (routes []*bgp.Route, from []*Peer) {
	for i, rt := range r.ribIn {
		if rt != nil {
			routes = append(routes, rt)
			from = append(from, r.peers[i])
		}
	}
	return routes, from
}

// RIBInAt returns the route learned on peers[i], or nil.
func (r *Router) RIBInAt(i int) *bgp.Route { return r.ribIn[i] }

// CheckBest re-runs the full decision process at every router and returns
// an error naming the first one whose best route is not the winner over
// its current candidates. Propagation maintains Best incrementally; this
// is the check that the incremental update agrees with bgp.Decide, for
// tests to call after a Run.
func (n *Network) CheckBest() error {
	for _, r := range n.routers {
		cands, _ := r.DecideRIB()
		var want *bgp.Route
		if best, _ := bgp.Decide(n.cfg, cands, nil); best >= 0 {
			want = cands[best]
		}
		if r.best != want {
			return fmt.Errorf("sim: router %s holds best %v, but the decision process picks %v", r.ID, r.best, want)
		}
	}
	return nil
}

// DecideRIB re-runs the decision process over the router's current
// candidates (local route + RIB-In) and returns the candidates together
// with the step at which each was eliminated. The winner has StepNone.
// It returns nil slices when the router has no candidates.
func (r *Router) DecideRIB() (cands []*bgp.Route, elim []bgp.Step) {
	if r.local != nil {
		cands = append(cands, r.local)
	}
	for _, rt := range r.ribIn {
		if rt != nil {
			cands = append(cands, rt)
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	_, elim = bgp.Decide(r.net.cfg, cands, nil)
	return cands, elim
}
