package model

import (
	"context"
	"errors"
	"fmt"

	"asmodel/internal/bgp"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/sim"
)

// Speculative refinement (DESIGN.md §5 "Speculative refinement"): the
// mutating refine iterations fan the open prefixes out across per-worker
// model clones. Each worker speculatively propagates + refines its
// prefix against the iteration-start state and records the resulting
// mutations as replayable data records; a sequential merger then walks
// the worklist in order and either replays a speculation verbatim (when
// nothing it depended on changed) or re-runs the prefix on the canonical
// model. Output is defined purely by worklist order, so the refined
// model, result counts, trace events and redacted spans are
// byte-identical to the sequential path at any worker count.
//
// The conflict rule works at AS granularity and exploits that policies
// are keyed (session, prefix) — one prefix's policy edits can never
// change another prefix's propagation. Cross-prefix interference flows
// only through topology (a duplicated quasi-router advertises every
// prefix) and through duplication's policy *copying*:
//
//   - a speculation reads the ASes its propagation touched plus its
//     requirement ASes; an earlier merge that duplicated into any of
//     those ASes (or added sessions to them — a duplication writes its
//     source AS and every remote AS) conflicts;
//   - a speculation that itself duplicated a quasi-router additionally
//     reads the source's own-side policies, so an earlier merge that
//     edited policies in that AS conflicts too.

// Speculative-refinement metrics, registered on the obs default
// registry. Busy/idle are observed once per worker per speculative
// iteration; speculations/conflicts are batched per iteration.
var (
	mSpecs = obs.GetCounter("refine_speculations_total",
		"prefixes speculatively refined on worker clones")
	mConflicts = obs.GetCounter("refine_conflicts_total",
		"speculations discarded and re-run on the canonical model")
	mRefBusy = obs.GetHistogram("refine_worker_busy_seconds",
		"per-worker time spent speculating per refine iteration",
		obs.ExpBuckets(1e-3, 4, 12))
	mRefIdle = obs.GetHistogram("refine_worker_idle_seconds",
		"per-worker time spent waiting (cursor contention, tail straggling) per refine iteration",
		obs.ExpBuckets(1e-3, 4, 12))
)

// actionKind enumerates the replayable refinement mutations. The set
// mirrors the heuristic's vocabulary (§4.6): clearing import actions,
// installing/removing export filters, MED / local-pref import rules, and
// quasi-router duplication.
type actionKind uint8

const (
	actClearImports actionKind = iota // drop import actions for prefix on every session of router
	actDenyExport                     // install an export deny on session router->other
	actAllowExport                    // remove an export deny on session router->other
	actSetMED                         // install an import-MED rule on session router->other
	actSetLP                          // install an import local-pref rule on session router->other
	actDuplicate                      // duplicate quasi-router router; the copy must get ID newID
)

// refineAction is one recorded mutation — pure data, resolvable against
// any model in the same state (the same restructuring PR 5 applied to
// quirk undos): routers are named by ID, sessions by (local, remote) ID
// pair, so a record taken on a clone replays identically on the
// canonical model.
type refineAction struct {
	kind   actionKind
	prefix bgp.PrefixID
	router bgp.RouterID // acting router (session local side, clear target, or duplication source)
	other  bgp.RouterID // session remote side, where applicable
	value  uint32       // MED / local-pref value
	newID  bgp.RouterID // expected ID of the duplicate, for actDuplicate
}

// undoRec reverses one mutation on the model it was recorded against
// (worker clones only — pointers are clone-local and transient).
type undoRec struct {
	peer    *sim.Peer
	prefix  bgp.PrefixID
	restore sim.ImportActionView // prior import action for undoImport
	present bool
	router  *sim.Router // duplicate to remove for undoRouter
	kind    undoKind
}

type undoKind uint8

const (
	undoImport undoKind = iota // restore the prior per-prefix import action on peer
	undoDeny                   // remove the export deny installed on peer
	undoAllow                  // reinstall the export deny removed from peer
	undoRouter                 // remove the duplicated router (LIFO)
)

// actionLog is the single mutation path of the refinement heuristic:
// refinePrefix and its helpers route every model edit through it. It
// always applies the edit and bumps the result counters; with record it
// additionally captures a replayable refineAction, and with trackUndo an
// inverse operation, so a speculation can be replayed on the canonical
// model and rolled back on its clone.
type actionLog struct {
	m         *Model
	res       *RefineResult
	record    bool
	trackUndo bool
	recs      []refineAction
	undo      []undoRec
}

func (al *actionLog) clearImports(q *sim.Router, prefix bgp.PrefixID) {
	for _, p := range q.Peers() {
		if al.trackUndo {
			if v, ok := p.ImportActionFor(prefix); ok {
				al.undo = append(al.undo, undoRec{kind: undoImport, peer: p, restore: v, present: true})
			}
		}
		p.ClearImport(prefix)
	}
	if al.record {
		al.recs = append(al.recs, refineAction{kind: actClearImports, prefix: prefix, router: q.ID})
	}
}

func (al *actionLog) denyExport(p *sim.Peer, prefix bgp.PrefixID) {
	p.DenyExport(prefix)
	al.res.FiltersAdded++
	if al.trackUndo {
		al.undo = append(al.undo, undoRec{kind: undoDeny, peer: p, prefix: prefix})
	}
	if al.record {
		al.recs = append(al.recs, refineAction{kind: actDenyExport, prefix: prefix, router: p.Local.ID, other: p.Remote.ID})
	}
}

func (al *actionLog) allowExport(p *sim.Peer, prefix bgp.PrefixID) {
	p.AllowExport(prefix)
	al.res.FiltersRemoved++
	if al.trackUndo {
		al.undo = append(al.undo, undoRec{kind: undoAllow, peer: p, prefix: prefix})
	}
	if al.record {
		al.recs = append(al.recs, refineAction{kind: actAllowExport, prefix: prefix, router: p.Local.ID, other: p.Remote.ID})
	}
}

func (al *actionLog) setImportMED(p *sim.Peer, prefix bgp.PrefixID, med uint32) {
	al.saveImport(p, prefix)
	p.SetImportMED(prefix, med)
	al.res.MEDRules++
	if al.record {
		al.recs = append(al.recs, refineAction{kind: actSetMED, prefix: prefix, router: p.Local.ID, other: p.Remote.ID, value: med})
	}
}

func (al *actionLog) setImportLocalPref(p *sim.Peer, prefix bgp.PrefixID, lp uint32) {
	al.saveImport(p, prefix)
	p.SetImportLocalPref(prefix, lp)
	al.res.LocalPrefRules++
	if al.record {
		al.recs = append(al.recs, refineAction{kind: actSetLP, prefix: prefix, router: p.Local.ID, other: p.Remote.ID, value: lp})
	}
}

func (al *actionLog) saveImport(p *sim.Peer, prefix bgp.PrefixID) {
	if !al.trackUndo {
		return
	}
	v, ok := p.ImportActionFor(prefix)
	al.undo = append(al.undo, undoRec{kind: undoImport, peer: p, restore: v, present: ok})
}

func (al *actionLog) duplicateQR(src *sim.Router) (*sim.Router, error) {
	nq, err := al.m.DuplicateQR(src)
	if err != nil {
		return nil, err
	}
	al.res.QuasiRoutersAdded++
	if al.trackUndo {
		al.undo = append(al.undo, undoRec{kind: undoRouter, router: nq})
	}
	if al.record {
		al.recs = append(al.recs, refineAction{kind: actDuplicate, router: src.ID, newID: nq.ID})
	}
	return nq, nil
}

// undoAll reverses every tracked mutation in reverse order, restoring
// the model to its pre-refinePrefix topology and policies. Policy undos
// on a duplicated router's sessions precede the router's removal (they
// were applied after the duplication), so the LIFO RemoveRouter
// invariant always holds.
func (al *actionLog) undoAll() error {
	for i := len(al.undo) - 1; i >= 0; i-- {
		u := al.undo[i]
		switch u.kind {
		case undoImport:
			u.peer.RestoreImportAction(u.restore, u.present)
		case undoDeny:
			u.peer.AllowExport(u.prefix)
		case undoAllow:
			u.peer.DenyExport(u.prefix)
		case undoRouter:
			if err := al.m.removeLastQR(u.router); err != nil {
				return err
			}
		}
	}
	al.undo = al.undo[:0]
	return nil
}

// removeLastQR undoes the most recent addQR/DuplicateQR: it removes r
// from the network (LIFO — see sim.Network.RemoveRouter), the
// quasi-router index, and rewinds the per-AS ID counter so the next
// duplication in the AS reuses the ID.
func (m *Model) removeLastQR(r *sim.Router) error {
	rs := m.qrs[r.AS]
	if len(rs) == 0 || rs[len(rs)-1] != r {
		return fmt.Errorf("model: removeLastQR: %s is not AS %s's newest quasi-router", r.ID, r.AS)
	}
	if err := m.Net.RemoveRouter(r); err != nil {
		return err
	}
	m.qrs[r.AS] = rs[:len(rs)-1]
	m.nextIdx[r.AS]--
	return nil
}

// applyAction replays one recorded mutation against m, bumping the
// counters of res. It reports false when the record does not resolve —
// a state mismatch the conflict rule is supposed to make impossible for
// clean speculations, surfaced as a hard error by the merger rather
// than silently diverging.
func applyAction(m *Model, a refineAction, res *RefineResult) bool {
	switch a.kind {
	case actClearImports:
		q := m.Net.Router(a.router)
		if q == nil {
			return false
		}
		for _, p := range q.Peers() {
			p.ClearImport(a.prefix)
		}
	case actDenyExport:
		p := sessionOf(m, a.router, a.other)
		if p == nil {
			return false
		}
		p.DenyExport(a.prefix)
		res.FiltersAdded++
	case actAllowExport:
		p := sessionOf(m, a.router, a.other)
		if p == nil {
			return false
		}
		p.AllowExport(a.prefix)
		res.FiltersRemoved++
	case actSetMED:
		p := sessionOf(m, a.router, a.other)
		if p == nil {
			return false
		}
		p.SetImportMED(a.prefix, a.value)
		res.MEDRules++
	case actSetLP:
		p := sessionOf(m, a.router, a.other)
		if p == nil {
			return false
		}
		p.SetImportLocalPref(a.prefix, a.value)
		res.LocalPrefRules++
	case actDuplicate:
		src := m.Net.Router(a.router)
		if src == nil {
			return false
		}
		if bgp.MakeRouterID(src.AS, m.nextIdx[src.AS]) != a.newID {
			return false // the AS grew since the record was taken
		}
		nq, err := m.DuplicateQR(src)
		if err != nil || nq.ID != a.newID {
			return false
		}
		res.QuasiRoutersAdded++
	default:
		return false
	}
	return true
}

func sessionOf(m *Model, local, remote bgp.RouterID) *sim.Peer {
	r := m.Net.Router(local)
	if r == nil {
		return nil
	}
	return r.PeerTo(remote)
}

// speculation is one worker's tentative outcome for one open prefix:
// the refinePrefix results, the recorded action set, and the read-set
// the merger checks it against.
type speculation struct {
	err       error                // worker panic or non-divergence simulation failure
	div       *sim.DivergenceError // propagation diverged on the clone
	changed   bool
	satisfied bool
	resv      int
	// Match counts (observer runs only).
	ribOut, potential, ribIn int
	// recs is the replayable action set; reads the ASes the speculation
	// depends on (propagation-touched ∪ requirement ASes).
	recs  []refineAction
	reads []bgp.ASN
}

// specReads derives the speculation's read-set after the clone ran the
// prefix: the AS of every touched router plus the requirement ASes
// (which the heuristic inspects even when untouched).
func specReads(c *Model, w *prefixWork) []bgp.ASN {
	seen := make(map[bgp.ASN]struct{}, len(w.reqASes))
	reads := make([]bgp.ASN, 0, len(w.reqASes))
	for _, as := range w.reqASes {
		if _, dup := seen[as]; !dup {
			seen[as] = struct{}{}
			reads = append(reads, as)
		}
	}
	for _, r := range c.Net.TouchedRouters() {
		if _, dup := seen[r.AS]; !dup {
			seen[r.AS] = struct{}{}
			reads = append(reads, r.AS)
		}
	}
	return reads
}

// conflictsWith reports whether the speculation depended on canonical
// state that earlier merges changed: its read-set intersects the
// accumulated topology writes, or it duplicated a quasi-router in an AS
// whose policies were edited (duplication copies the source's own-side
// policies).
func (sp *speculation) conflictsWith(m *Model, topoWrites, policyWrites map[bgp.ASN]struct{}) bool {
	if len(topoWrites) > 0 {
		for _, as := range sp.reads {
			if _, hit := topoWrites[as]; hit {
				return true
			}
		}
	}
	if len(policyWrites) > 0 {
		for _, a := range sp.recs {
			if a.kind != actDuplicate {
				continue
			}
			if src := m.Net.Router(a.router); src != nil {
				if _, hit := policyWrites[src.AS]; hit {
					return true
				}
			}
		}
	}
	return false
}

// addWrites folds one merged action set into the iteration's write
// tracking. Policy edits write the acting router's AS; a duplication
// writes the source AS (new router, new own-side sessions/policies) and
// every remote AS (each gained a session toward the copy). Resolution
// happens against the canonical model right after the set was applied,
// before any later merge, so the session fan-out seen here is exactly
// the one the action produced.
func addWrites(m *Model, recs []refineAction, topoWrites, policyWrites map[bgp.ASN]struct{}) {
	for _, a := range recs {
		switch a.kind {
		case actDuplicate:
			src := m.Net.Router(a.router)
			if src == nil {
				continue
			}
			topoWrites[src.AS] = struct{}{}
			for _, p := range src.Peers() {
				topoWrites[p.Remote.AS] = struct{}{}
			}
		default:
			if r := m.Net.Router(a.router); r != nil {
				policyWrites[r.AS] = struct{}{}
			}
		}
	}
}

// specClone is one pooled worker clone plus the canonical-log position
// it is synced to.
type specClone struct {
	m   *Model
	pos int // rr.log index the clone's topology/policies reflect
}

// workerCount resolves cfg.Workers: negative selects
// pool.DefaultWorkers(), 0 and 1 stay sequential.
func (rr *refineRun) workerCount() int {
	w := rr.cfg.Workers
	if w < 0 {
		w = pool.DefaultWorkers()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// clonePool returns n clones synced to the canonical model's current
// topology and policies. Clones are built once per refine run and kept
// in step by replaying the canonical action log suffix — cheap relative
// to a fresh deep copy, and the reason the speculative iterations and
// the verify sweep share one pool.
func (rr *refineRun) clonePool(n int) []*specClone {
	for len(rr.pool) < n {
		rr.pool = append(rr.pool, &specClone{m: rr.m.Clone(), pos: len(rr.log)})
		mParClones.Inc()
	}
	scratch := &RefineResult{}
	for _, c := range rr.pool[:n] {
		resync := false
		for _, a := range rr.log[c.pos:] {
			if !applyAction(c.m, a, scratch) {
				resync = true
				break
			}
		}
		if resync {
			// Replay failed (should be impossible for a clone in step);
			// fall back to a fresh deep copy.
			c.m = rr.m.Clone()
			mParClones.Inc()
		}
		c.pos = len(rr.log)
	}
	return rr.pool[:n]
}

// speculate runs one open prefix on the worker's clone: propagate,
// compute match counts, refine with recording + undo tracking, derive
// the read-set, then roll the clone back to the iteration-start state.
func (rr *refineRun) speculate(c *Model, w *prefixWork, sp *speculation) {
	if err := c.runPrefixBudget(context.Background(), w.id, w.budget); err != nil {
		var derr *sim.DivergenceError
		if errors.As(err, &derr) {
			// Divergence is deterministic too: the canonical run at the
			// merge point replays the same message sequence unless a
			// conflict intervenes, so the clone's error stands in for it.
			sp.div = derr
			sp.reads = specReads(c, w)
			return
		}
		sp.err = err
		return
	}
	if rr.observing {
		sp.ribOut, sp.potential, sp.ribIn = c.matchCounts(w)
	}
	al := &actionLog{m: c, res: &RefineResult{}, record: true, trackUndo: true}
	sp.changed, sp.satisfied, sp.resv = c.refinePrefix(w, rr.cfg, al)
	sp.recs = al.recs
	sp.reads = specReads(c, w)
	if err := al.undoAll(); err != nil {
		sp.err = fmt.Errorf("model: rolling back speculation for prefix %s: %w", rr.name(w), err)
	}
}

// iterateSpeculative is the parallel form of one inner refinement
// iteration over the open prefixes. Pool workers claim prefixes in
// worklist order and speculate on pooled clones; the caller's goroutine
// merges outcomes in worklist order as they become ready — replaying
// clean speculations, re-running conflicted (or forceDiverge-seamed)
// ones on the canonical model — so every observable output matches the
// sequential iteration exactly.
func (rr *refineRun) iterateSpeculative(open []*prefixWork, iterSpan *obs.Span) (changedAny bool, pending, reservations, conflicts int, err error) {
	clones := rr.clonePool(pool.Workers(rr.workerCount(), len(open)))
	specs := make([]speculation, len(open))
	ready := make([]chan struct{}, len(open))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	mSpecs.Add(int64(len(open)))
	sweep := pool.Sweep{
		Op:    "refine",
		Name:  func(i int) string { return rr.name(open[i]) },
		Span:  iterSpan,
		Items: mParPerWkr, Busy: mRefBusy, Idle: mRefIdle,
		Done: func(i int, err error) {
			specs[i].err = err
			close(ready[i])
		},
	}
	ctx, abort := context.WithCancel(context.Background())
	defer abort()
	swept := make(chan error, 1)
	go func() {
		swept <- pool.Run(ctx, sweep, len(open), len(clones),
			func(wi int) *Model { return clones[wi].m },
			func(_ context.Context, c *Model, i int) error {
				rr.speculate(c, open[i], &specs[i])
				return specs[i].err
			})
	}()

	// Sequential merger, overlapping the still-running workers. The
	// pool claims indices in order and stops claiming only after a failed
	// item, whose ready slot closes with its error — so the merger never
	// waits on an unclaimed slot before hitting a claimed one.
	topoWrites := make(map[bgp.ASN]struct{})
	policyWrites := make(map[bgp.ASN]struct{})
	var merr error
	for i, w := range open {
		<-ready[i]
		sp := &specs[i]
		if sp.err != nil {
			merr = sp.err
			break
		}
		// The forceDiverge seam decrements shared per-prefix counters, so
		// it is honoured only here, on the canonical pass, in worklist
		// order — exactly as the sequential loop would.
		forced := rr.cfg.forceDiverge != nil && rr.cfg.forceDiverge[w.id] > 0
		if forced || sp.conflictsWith(rr.m, topoWrites, policyWrites) {
			conflicts++
			changed, satisfied, resv, quarantined, rerr := rr.refineCanonical(w, topoWrites, policyWrites)
			if rerr != nil {
				merr = rerr
				break
			}
			reservations += resv
			if quarantined {
				continue
			}
			if changed {
				changedAny = true
				pending++
				continue
			}
			w.done = true
			w.ok = satisfied
			continue
		}
		if sp.div != nil {
			rr.quarantine(w, sp.div)
			continue
		}
		if rr.observing {
			w.ribOut, w.potential, w.ribIn = sp.ribOut, sp.potential, sp.ribIn
		}
		applied := true
		for _, a := range sp.recs {
			if !applyAction(rr.m, a, rr.res) {
				applied = false
				break
			}
		}
		if !applied {
			// A clean speculation must replay — a failure here means the
			// conflict rule missed a dependency. Surface it loudly rather
			// than continuing from a half-applied action set.
			merr = fmt.Errorf("model: speculative replay failed for prefix %s (conflict rule violation)", rr.name(w))
			break
		}
		rr.log = append(rr.log, sp.recs...)
		addWrites(rr.m, sp.recs, topoWrites, policyWrites)
		reservations += sp.resv
		if sp.changed {
			changedAny = true
			pending++
			continue
		}
		w.done = true
		w.ok = sp.satisfied
	}
	if merr != nil {
		abort()
	}
	if perr := <-swept; merr == nil {
		merr = perr
	}
	if merr != nil {
		return false, 0, 0, 0, merr
	}
	mConflicts.Add(int64(conflicts))
	return changedAny, pending, reservations, conflicts, nil
}

// refineCanonical runs one prefix through the exact sequential
// iteration body on the canonical model (conflicted or seam-forced
// prefixes), recording its actions into the canonical log and write
// tracking.
func (rr *refineRun) refineCanonical(w *prefixWork, topoWrites, policyWrites map[bgp.ASN]struct{}) (changed, satisfied bool, resv int, quarantined bool, err error) {
	if rerr := rr.runPrefix(w); rerr != nil {
		var derr *sim.DivergenceError
		if errors.As(rerr, &derr) {
			rr.quarantine(w, derr)
			return false, false, 0, true, nil
		}
		return false, false, 0, false, rerr
	}
	if rr.observing {
		w.ribOut, w.potential, w.ribIn = rr.m.matchCounts(w)
	}
	al := &actionLog{m: rr.m, res: rr.res, record: true}
	changed, satisfied, resv = rr.m.refinePrefix(w, rr.cfg, al)
	rr.log = append(rr.log, al.recs...)
	addWrites(rr.m, al.recs, topoWrites, policyWrites)
	return changed, satisfied, resv, false, nil
}
