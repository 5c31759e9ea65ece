// Package serve turns a refined quasi-router model into a long-lived
// route-prediction service: an immutable model snapshot answering
// (vantage, prefix) → predicted AS-path queries over HTTP/JSON from
// routing trees precomputed when the snapshot is built, with validated
// atomic hot-swap of new checkpoints, bounded in-flight load shedding,
// and a drain-on-signal lifecycle. The package is engineered for failure
// first: a corrupt or torn checkpoint, a diverging propagation, a
// panicking table build or a slow client never take down the serving
// snapshot.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/model"
	"asmodel/internal/obs"
	"asmodel/internal/pool"
	"asmodel/internal/sim"
)

var (
	mClones     = obs.GetCounter("serve_clones_total", "model clones created by snapshot table builds")
	mPropagates = obs.GetCounter("serve_propagations_total", "per-prefix propagations run by snapshot table builds")
	mBuildItems = obs.GetHistogram("serve_build_worker_prefixes", "prefixes propagated per worker per table build",
		obs.ExpBuckets(1, 4, 10))
	mBuildBusy = obs.GetHistogram("serve_build_worker_busy_seconds", "per-worker time spent propagating prefixes per table build",
		obs.ExpBuckets(1e-3, 4, 12))
	mBuildIdle = obs.GetHistogram("serve_build_worker_idle_seconds", "per-worker time spent waiting (clone build, cursor contention, tail straggling) per table build",
		obs.ExpBuckets(1e-3, 4, 12))
)

// Alternate is one route a vantage AS considered and eliminated: the
// path, the decision step that killed it, and how deep in the decision
// process it survived (higher = closer call).
type Alternate struct {
	Path         string `json:"path"`
	EliminatedAt string `json:"eliminated_at"`
	Depth        int    `json:"depth"`
}

// Prediction is the service's answer for one (vantage, prefix) query.
type Prediction struct {
	Prefix  string  `json:"prefix"`
	Vantage bgp.ASN `json:"vantage"`
	// HasRoute reports whether any quasi-router of the vantage AS
	// selected a route; Path is empty otherwise.
	HasRoute bool   `json:"has_route"`
	Path     string `json:"path,omitempty"`
	// Paths is every distinct best path across the vantage's
	// quasi-routers (the paper's route diversity), vantage-prepended and
	// sorted; Path is the one the AS-level decision process picks.
	Paths []string `json:"paths,omitempty"`
	// TieBreakStep/TieBreakDepth report the deepest decision step that
	// eliminated a candidate at the vantage (how contested the choice
	// was); "best"/0 when there was no contest.
	TieBreakStep  string `json:"tie_break_step"`
	TieBreakDepth int    `json:"tie_break_depth"`
	// Alternates are eliminated candidates, deepest-surviving first,
	// truncated to the requested k.
	Alternates []Alternate `json:"alternates,omitempty"`
	// SnapshotSeq identifies the snapshot that answered; it changes on
	// every hot-swap.
	SnapshotSeq int64 `json:"snapshot_seq"`
}

// Snapshot is an immutable serving unit: a quiescent refined model plus
// the route table of its routing trees, from which, with the model's
// policies, every (prefix, vantage) query is answered. The table is
// built once, when the snapshot is, so a query never propagates; a
// hot-swap replaces model and table together.
type Snapshot struct {
	// Seq is the swap sequence number (1 for the boot snapshot).
	Seq int64
	// Source is the file the model loaded from ("" when handed an
	// in-memory model); for checkpoints it is the primary path or its
	// ".bak" fallback, exactly as LoadCheckpointFile reports.
	Source string
	// Origin is "checkpoint", "model" or "memory".
	Origin string
	// Iteration is the refinement iteration of the checkpoint (0 for
	// plain models).
	Iteration int
	// LoadedAt is when the snapshot was built.
	LoadedAt time.Time

	base  *model.Model
	table *routeTable
	// err is the table build's failure; Predict returns it. Only
	// NewSnapshot keeps such a snapshot: the server rolls it back.
	err error
}

// NewSnapshot wraps a quiescent model for serving, building its route
// table on n workers (n <= 0 means pool.DefaultWorkers()). Queries read
// the model's topology and policies, so it must not change while the
// snapshot serves. A build that fails — a panic, which becomes a
// *pool.PanicError, or a model with session hooks — leaves a snapshot
// whose every Predict returns that error.
func NewSnapshot(m *model.Model, n int) *Snapshot {
	s, _ := buildSnapshot(context.Background(), m, n)
	return s
}

// buildSnapshot builds the route table of m on workers workers under
// ctx, which also parents the build's span.
func buildSnapshot(ctx context.Context, m *model.Model, workers int) (*Snapshot, error) {
	t, err := buildTable(ctx, m, workers)
	return &Snapshot{base: m, table: t, err: err, LoadedAt: time.Now(), Origin: "memory"}, err
}

// Model returns the snapshot's canonical model. It must be treated as
// read-only.
func (s *Snapshot) Model() *model.Model { return s.base }

// predictFault, when non-nil, runs at the head of every Predict — the
// seam fault-injection tests use for slow or panicking predictions. It
// must only be set while no server is serving.
var predictFault func(prefix string)

// ErrUnknownVantage reports a vantage AS absent from the model.
type ErrUnknownVantage struct{ AS bgp.ASN }

func (e *ErrUnknownVantage) Error() string { return fmt.Sprintf("serve: unknown vantage AS %d", e.AS) }

// ErrUnknownPrefix reports a prefix absent from the model's universe.
type ErrUnknownPrefix struct{ Prefix string }

func (e *ErrUnknownPrefix) Error() string { return "serve: unknown prefix " + e.Prefix }

// routeTable is a snapshot's routing trees: for every prefix, the slot
// each quasi-router's best route came from (sim.Router.BestSlot), which
// with the model's policies determines every answer (DESIGN.md §8).
// Apart from the few per-prefix errors it holds no pointers, so the
// garbage collector never scans it.
type routeTable struct {
	routers int // row length: the model's quasi-router count
	// rows holds router r's best slot for prefix p at p*routers+r.Index(),
	// slot s stored as s+2: a zero row (a failed prefix's) has no route.
	rows []uint16
	errs []error // per prefix, why its propagation failed
}

// Row values besides a peer slot s, which is stored as s+2.
const (
	rowNone  = sim.NoSlot + 2
	rowLocal = sim.LocalSlot + 2
)

func (t *routeTable) row(id bgp.PrefixID) []uint16 {
	return t.rows[int(id)*t.routers : (int(id)+1)*t.routers]
}

// buildTable propagates every prefix of m once on the worker pool and
// copies every quasi-router's best slot into the prefix's row. Workers
// each propagate on their own clone and write disjoint rows, so the
// table is identical at any worker count. A prefix that diverges or has
// no origin in the model keeps its error in the table; a panic or ctx's
// cancellation fails the build, as does a model the rows cannot
// describe.
func buildTable(ctx context.Context, m *model.Model, workers int) (*routeTable, error) {
	if err := checkServable(m); err != nil {
		return nil, err
	}
	n, routers := m.Universe.Len(), m.NumQuasiRouters()
	workers = max(pool.Workers(workers, n), 1)
	ctx, span := obs.StartSpan(ctx, "serve.build_table",
		obs.A("prefixes", n), obs.A("quasi_routers", routers), obs.VolatileAttr("workers", workers))
	defer span.End()

	t := &routeTable{routers: routers, rows: make([]uint16, n*routers), errs: make([]error, n)}
	sweep := pool.Sweep{
		Op:    "serve",
		Name:  func(i int) string { return m.Universe.Name(bgp.PrefixID(i)) },
		Span:  span,
		Items: mBuildItems, Busy: mBuildBusy, Idle: mBuildIdle,
	}
	newWorker := func(int) *model.Model {
		mClones.Inc()
		return m.Clone()
	}
	err := pool.Run(ctx, sweep, n, workers, newWorker, func(ctx context.Context, c *model.Model, i int) error {
		if err := c.RunPrefixContext(ctx, bgp.PrefixID(i)); err != nil {
			if ctx.Err() != nil {
				return err
			}
			t.errs[i] = err
			return nil
		}
		mPropagates.Inc()
		row := t.row(bgp.PrefixID(i))
		for j, r := range c.Net.Routers() {
			row[j] = uint16(r.BestSlot() + 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// checkServable rejects a model whose routes the rows cannot rebuild: a
// session hook changes or suppresses routes beyond what per-prefix
// policies record, and a row value holds a slot below 2^16-2.
func checkServable(m *model.Model) error {
	for _, r := range m.Net.Routers() {
		if len(r.Peers()) > math.MaxUint16-2 {
			return fmt.Errorf("serve: quasi-router %s has %d sessions, more than a routing-tree row can index", r.ID, len(r.Peers()))
		}
		for _, p := range r.Peers() {
			if p.ImportHook != nil || p.ExportHook != nil {
				return fmt.Errorf("serve: session %s->%s has an import or export hook; routing trees rebuild routes from per-prefix policies only", r.ID, p.Remote.ID)
			}
		}
	}
	return nil
}

// query is the scratch space one Predict rebuilds a vantage's decision
// state in. Queries are pooled, so a warm Predict allocates little more
// than its answer.
type query struct {
	routes      []bgp.Route // candidates, their paths slices of asns
	asns        []bgp.ASN
	cands       []*bgp.Route
	elim        []bgp.Step
	bests, alts []ranked // quasi-routers' bests; the other candidates
	buf         []byte
}

type ranked struct {
	route *bgp.Route
	step  bgp.Step
}

var queries = sync.Pool{New: func() any { return new(query) }}

// rebuild appends quasi-router q's candidates for the prefix of row to
// qy.routes and returns them: its local route when its AS originates the
// prefix, then one route per session whose remote router offers one, in
// session order — the candidates sim.Router.DecideRIB lists after a
// run, rebuilt from the best slots in row and the model's policies
// alone. A session offers the remote's best path with the remote's AS
// prepended unless either direction is disabled, the remote's export
// toward q is denied, the path holds q's AS (the eBGP loop check) or q's
// import action denies it; an import action's MED and local-pref replace
// the defaults.
func (qy *query) rebuild(row []uint16, id bgp.PrefixID, q *sim.Router, origin bool) []bgp.Route {
	from := len(qy.routes)
	if origin {
		qy.routes = append(qy.routes, bgp.Route{Prefix: id, LocalPref: bgp.DefaultLocalPref, MED: bgp.DefaultMED})
	}
	for _, p := range q.Peers() {
		if rev := p.Reverse(); p.Disabled() || rev.Disabled() || rev.ExportDenied(id) {
			continue
		}
		a := p.ImportAction(id)
		// A path stays valid when asns grows: earlier paths keep the
		// array they were cut from, and a rejected walk is cut off.
		start := len(qy.asns)
		if a.Deny || !qy.walk(row, p.Remote, q.AS) {
			qy.asns = qy.asns[:start]
			continue
		}
		rt := bgp.Route{Prefix: id, Path: qy.asns[start:len(qy.asns):len(qy.asns)],
			LocalPref: bgp.DefaultLocalPref, MED: bgp.DefaultMED, Peer: p.Remote.ID, EBGP: true}
		if a.HasMED {
			rt.MED = a.MED
		}
		if a.HasLP {
			rt.LocalPref = a.LocalPref
		}
		qy.routes = append(qy.routes, rt)
	}
	return qy.routes[from:]
}

// walk appends the best path of router r — r's AS, then its parent's,
// up to the origin's — to qy.asns. It reports false when the path holds
// avoid. Best paths are loop-free, so the walk visits at most every
// router once.
func (qy *query) walk(row []uint16, r *sim.Router, avoid bgp.ASN) bool {
	for range row {
		s := row[r.Index()]
		if r.AS == avoid || s == rowNone {
			return false
		}
		qy.asns = append(qy.asns, r.AS)
		if s == rowLocal {
			return true
		}
		r = r.Peers()[s-2].Remote
	}
	return false
}

// answer returns path with the vantage prepended, as the vantage would
// export it: the same text as path.Prepend(vantage).String().
func (qy *query) answer(vantage bgp.ASN, path bgp.Path) string {
	qy.buf = strconv.AppendUint(qy.buf[:0], uint64(vantage), 10)
	for _, a := range path {
		qy.buf = append(qy.buf, ' ')
		qy.buf = strconv.AppendUint(qy.buf, uint64(a), 10)
	}
	return string(qy.buf)
}

// byPath orders routes as the String texts of their paths sort, without
// rendering whole paths: at the first ASN that differs, the decimal
// texts decide, a text that prefixes the other's sorting first (a space
// sorts before every digit), as does a path that is a prefix of another.
func byPath(x, y ranked) int {
	a, b := x.route.Path, y.route.Path
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			var da, db [10]byte
			return bytes.Compare(strconv.AppendUint(da[:0], uint64(a[i]), 10), strconv.AppendUint(db[:0], uint64(b[i]), 10))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// Predict answers one (vantage, prefix) query from the decision state
// of the vantage's quasi-routers, rebuilt from this snapshot's routing
// trees. k caps the number of alternates returned (k <= 0 means none). A
// prefix whose propagation failed at build time (divergence, no origin
// in the model) answers with that error.
func (s *Snapshot) Predict(ctx context.Context, prefixName string, vantage bgp.ASN, k int) (*Prediction, error) {
	if predictFault != nil {
		predictFault(prefixName)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	m := s.base
	id, ok := m.Universe.ID(prefixName)
	if !ok {
		return nil, &ErrUnknownPrefix{Prefix: prefixName}
	}
	if err := s.table.errs[id]; err != nil {
		return nil, err
	}
	if len(m.QuasiRouters(vantage)) == 0 {
		return nil, &ErrUnknownVantage{AS: vantage}
	}
	qy := queries.Get().(*query)
	defer queries.Put(qy)
	qy.routes, qy.asns = qy.routes[:0], qy.asns[:0]
	qy.bests, qy.alts, qy.cands = qy.bests[:0], qy.alts[:0], qy.cands[:0]

	row := s.table.row(id)
	origin := slices.Contains(m.Universe.Origins(id), vantage)
	var tie bgp.Step
	var primary *bgp.Route // what the decision process picks among the bests
	for _, q := range m.QuasiRouters(vantage) {
		routes := qy.rebuild(row, id, q, origin)
		qy.cands = qy.cands[:0]
		for i := range routes {
			qy.cands = append(qy.cands, &routes[i])
		}
		best, elim := bgp.Decide(m.Net.Config(), qy.cands, qy.elim)
		qy.elim = elim
		for i, rt := range qy.cands {
			tie = max(tie, elim[i])
			if i == best {
				qy.bests = append(qy.bests, ranked{route: rt})
				if primary == nil || !bgp.Better(bgp.QuasiRouterConfig, primary, rt) {
					primary = rt
				}
			} else {
				qy.alts = append(qy.alts, ranked{route: rt, step: elim[i]})
			}
		}
	}
	p := &Prediction{
		Prefix:        prefixName,
		Vantage:       vantage,
		HasRoute:      len(qy.bests) > 0,
		TieBreakStep:  tie.String(),
		TieBreakDepth: int(tie),
		SnapshotSeq:   s.Seq,
	}
	if !p.HasRoute {
		return p, nil
	}
	p.Path = qy.answer(vantage, primary.Path)

	slices.SortFunc(qy.bests, byPath)
	bests := slices.CompactFunc(qy.bests, func(a, b ranked) bool { return a.route.Path.Equal(b.route.Path) })
	p.Paths = make([]string, len(bests))
	for i, b := range bests {
		p.Paths[i] = qy.answer(vantage, b.route.Path)
	}

	// Deepest first: the first occurrence of a path is where it survived
	// the most decision steps somewhere in the AS. Skip paths met before
	// and paths some quasi-router selected.
	slices.SortFunc(qy.alts, func(a, b ranked) int {
		if a.step != b.step {
			return cmp.Compare(b.step, a.step)
		}
		return byPath(a, b)
	})
	alts := qy.alts[:0]
	for _, a := range qy.alts {
		if len(alts) >= k {
			break
		}
		seen := slices.ContainsFunc(alts, func(b ranked) bool { return a.route.Path.Equal(b.route.Path) })
		if _, selected := slices.BinarySearchFunc(bests, a, byPath); !seen && !selected {
			alts = append(alts, a)
		}
	}
	if len(alts) > 0 {
		p.Alternates = make([]Alternate, len(alts))
		for i, a := range alts {
			p.Alternates[i] = Alternate{Path: qy.answer(vantage, a.route.Path), EliminatedAt: a.step.String(), Depth: int(a.step)}
		}
	}
	return p, nil
}
