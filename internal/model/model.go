// Package model implements the paper's primary contribution: the
// AS-routing model built from observed BGP paths. An AS is represented by
// one or more quasi-routers — logical partitions of its route-selection
// behaviour, not physical routers (§4.1) — connected by BGP sessions along
// the edges of the AS-level graph, with per-prefix policies (export
// filters and MED ranking) synthesised by an iterative refinement
// heuristic (§4.6) until the simulated route propagation reproduces every
// observed AS-path of a training set.
//
// The refined model predicts routes for held-out observation points and
// unseen prefixes (§4.7) and supports what-if edits such as de-peering a
// link.
package model

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/metrics"
	"asmodel/internal/obs"
	"asmodel/internal/sim"
	"asmodel/internal/topology"
)

// Model is an AS-routing model: a quasi-router topology plus per-prefix
// policies, executable by the sim engine one prefix at a time.
type Model struct {
	// Net is the underlying propagation network. Callers may inspect it
	// but should mutate topology and policies only through Model methods.
	Net *sim.Network
	// Universe maps prefix names to dense IDs and records origins.
	Universe *dataset.Universe
	// Graph is the AS-level topology the model was built from.
	Graph *topology.Graph

	qrs     map[bgp.ASN][]*sim.Router
	nextIdx map[bgp.ASN]uint16
}

// NewInitial builds the paper's initial model (§4.5): one quasi-router per
// AS of the graph and one BGP session per AS-level edge. Quasi-router IDs
// follow the ASN<<16|index convention so the final tie-break behaves like
// the paper's IP-address assignment.
func NewInitial(g *topology.Graph, u *dataset.Universe) (*Model, error) {
	m := &Model{
		Net:      sim.NewNetwork(bgp.QuasiRouterConfig),
		Universe: u,
		Graph:    g,
		qrs:      make(map[bgp.ASN][]*sim.Router),
		nextIdx:  make(map[bgp.ASN]uint16),
	}
	for _, asn := range g.Nodes() {
		if _, err := m.addQR(asn); err != nil {
			return nil, err
		}
	}
	for _, e := range g.Edges() {
		if _, _, err := m.Net.Connect(m.qrs[e.A][0], m.qrs[e.B][0]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *Model) addQR(asn bgp.ASN) (*sim.Router, error) {
	idx := m.nextIdx[asn]
	r, err := m.Net.AddRouter(asn, idx)
	if err != nil {
		return nil, err
	}
	m.nextIdx[asn] = idx + 1
	m.qrs[asn] = append(m.qrs[asn], r)
	return r, nil
}

// QuasiRouters returns the quasi-routers of an AS in creation order.
func (m *Model) QuasiRouters(asn bgp.ASN) []*sim.Router { return m.qrs[asn] }

// NumQuasiRouters returns the total quasi-router count.
func (m *Model) NumQuasiRouters() int { return m.Net.NumRouters() }

// QuasiRouterHistogram returns, for every AS, its quasi-router count —
// the paper's measure of how much internal structure was needed.
func (m *Model) QuasiRouterHistogram() map[bgp.ASN]int {
	out := make(map[bgp.ASN]int, len(m.qrs))
	for asn, rs := range m.qrs {
		out[asn] = len(rs)
	}
	return out
}

// DuplicateQR clones a quasi-router (§4.6): the new quasi-router gets a
// session to every remote the source has, with the source's own per-prefix
// policies copied, while export filters installed on remote sessions
// toward the source are not copied (they are keyed by receiving router).
func (m *Model) DuplicateQR(src *sim.Router) (*sim.Router, error) {
	q, err := m.addQR(src.AS)
	if err != nil {
		return nil, err
	}
	for _, p := range src.Peers() {
		np, _, err := m.Net.Connect(q, p.Remote)
		if err != nil {
			return nil, err
		}
		np.CopyPoliciesFrom(p)
	}
	return q, nil
}

// origins returns the quasi-routers that originate the prefix: every
// quasi-router of every origin AS (§4.1: one prefix per AS; all of an
// AS's quasi-routers announce it).
func (m *Model) origins(prefix bgp.PrefixID) []bgp.RouterID {
	if int(prefix) < 0 || int(prefix) >= m.Universe.Len() {
		return nil
	}
	var ids []bgp.RouterID
	for _, asn := range m.Universe.Origins(prefix) {
		for _, r := range m.qrs[asn] {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// RunPrefix propagates the prefix through the model until convergence.
// It returns an error if the prefix has no origin present in the model.
func (m *Model) RunPrefix(prefix bgp.PrefixID) error {
	return m.runPrefixBudget(context.Background(), prefix, 0)
}

// RunPrefixContext is RunPrefix with cancellation: a canceled context
// stops the propagation mid-delivery with an error wrapping ctx.Err().
func (m *Model) RunPrefixContext(ctx context.Context, prefix bgp.PrefixID) error {
	return m.runPrefixBudget(ctx, prefix, 0)
}

// runPrefixBudget propagates the prefix under an optional per-run message
// budget override (0 keeps the network default) — the quarantine retry
// path escalates budgets per prefix without touching Net.MaxMessages.
func (m *Model) runPrefixBudget(ctx context.Context, prefix bgp.PrefixID, budget int) error {
	ids := m.origins(prefix)
	if len(ids) == 0 {
		return fmt.Errorf("model: prefix %d has no origin AS in the model", prefix)
	}
	return m.Net.RunBudget(ctx, prefix, ids, budget)
}

// Evaluation is the outcome of evaluating a model against a dataset.
type Evaluation struct {
	// Summary aggregates per-path match kinds (§4.2 metrics).
	Summary *metrics.Summary
	// Coverage counts prefixes with ≥50/90/100% of their unique paths
	// RIB-Out matched.
	Coverage metrics.Coverage
	// SkippedPrefixes counts dataset prefixes that could not be simulated
	// (unknown to the universe or origin missing from the model).
	SkippedPrefixes int
	// Diverged counts prefixes whose propagation exhausted the message
	// budget (possible only with local-pref-based policies); Divergences
	// carries each one's context (prefix name, messages, budget).
	Diverged    int
	Divergences []DivergenceRecord
}

// DivergenceRecord pins down one diverged prefix: which one, how many
// messages it consumed, and the budget it blew through.
type DivergenceRecord struct {
	Prefix   string `json:"prefix"`
	Messages int    `json:"messages"`
	Budget   int    `json:"budget"`
}

// Evaluate simulates every prefix of the dataset through the model and
// classifies every distinct observed path. Prefixes are processed in
// universe order for determinism.
func (m *Model) Evaluate(ds *dataset.Dataset) (*Evaluation, error) {
	return m.EvaluateContext(context.Background(), ds)
}

// evalWork is the per-prefix unit of an evaluation: a simulatable prefix
// and its observed paths, pre-flattened into deterministic order.
type evalWork struct {
	id       bgp.PrefixID
	observed []metrics.ObservedAS
}

// evalWorklist derives the evaluation worklist from a dataset: one entry
// per simulatable prefix in ascending universe order, plus the count of
// prefixes that had to be skipped (unknown to the universe or without an
// origin AS in the model). Dataset prefixes arrive name-sorted, so the
// worklist is sorted once by dense ID without round-tripping through
// []int.
func (m *Model) evalWorklist(ds *dataset.Dataset) (works []evalWork, skipped int) {
	names := ds.Prefixes()
	works = make([]evalWork, 0, len(names))
	for _, name := range names {
		id, ok := m.Universe.ID(name)
		if !ok || len(m.origins(id)) == 0 {
			skipped++
			continue
		}
		works = append(works, evalWork{id: id, observed: metrics.SortObserved(ds.ObservedPaths(name))})
	}
	sort.Slice(works, func(i, j int) bool { return works[i].id < works[j].id })
	return works, skipped
}

// EvaluateContext is Evaluate with cancellation: between prefixes (and
// mid-propagation inside the engine) a canceled context aborts with a
// *InterruptedError carrying the number of prefixes already evaluated.
func (m *Model) EvaluateContext(ctx context.Context, ds *dataset.Dataset) (*Evaluation, error) {
	ev := &Evaluation{Summary: metrics.NewSummary()}
	cls := metrics.NewClassifier(m.Net)

	works, skipped := m.evalWorklist(ds)
	ev.SkippedPrefixes = skipped

	ctx, span := obs.StartSpan(ctx, "model.evaluate",
		obs.A("prefixes", len(works)), obs.A("skipped", skipped), obs.VolatileAttr("workers", 1))
	defer span.End()

	done := 0
	for _, w := range works {
		if err := ctx.Err(); err != nil {
			return nil, &InterruptedError{Op: "evaluate", Prefixes: done, Err: err}
		}
		var ps *obs.Span
		if span.SampledPrefix(int(w.id)) {
			ps = span.StartChild("prefix", obs.A("prefix", m.Universe.Name(w.id)))
		}
		if err := m.RunPrefixContext(ctx, w.id); err != nil {
			var derr *sim.DivergenceError
			if errors.As(err, &derr) {
				ev.Diverged++
				ev.Divergences = append(ev.Divergences, DivergenceRecord{
					Prefix:   m.Universe.Name(w.id),
					Messages: derr.Messages,
					Budget:   derr.Budget,
				})
				ps.Set(obs.A("diverged", true))
				ps.End()
				continue
			}
			ps.End()
			if ctx.Err() != nil {
				return nil, &InterruptedError{Op: "evaluate", Prefixes: done, Err: ctx.Err()}
			}
			return nil, err
		}
		matched, total := metrics.EvaluatePrefixSorted(cls, w.observed, ev.Summary)
		ev.Coverage.RecordPrefix(matched, total)
		ps.Set(obs.A("matched", matched), obs.A("total", total))
		ps.End()
		done++
	}
	span.Set(obs.A("diverged", ev.Diverged))
	return ev, nil
}

// PolicyStats summarizes the policy volume installed in the model.
type PolicyStats struct {
	ExportDenies  int
	ImportActions int
	Sessions      int
	QuasiRouters  int
	ASes          int
	MaxQRsPerAS   int
}

// Stats computes the model's current size.
func (m *Model) Stats() PolicyStats {
	var s PolicyStats
	s.QuasiRouters = m.Net.NumRouters()
	s.ASes = len(m.qrs)
	s.Sessions = m.Net.NumSessions()
	for _, r := range m.Net.Routers() {
		for _, p := range r.Peers() {
			s.ExportDenies += p.ExportDenyCount()
			s.ImportActions += p.ImportActionCount()
		}
	}
	for _, rs := range m.qrs {
		if len(rs) > s.MaxQRsPerAS {
			s.MaxQRsPerAS = len(rs)
		}
	}
	return s
}
