package serve

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/model"
	"asmodel/internal/sim"
)

// TestCandidatesMatchRIBIn holds the routing trees to the simulator: on
// every prefix of the scale-1 serve model, and of the same model refined
// with local-pref import actions, every quasi-router's candidates
// rebuilt from the table's best slots and the model's policies equal
// what Router.DecideRIB lists after propagating the prefix — routes,
// order and elimination steps — and the path walked from its best slot
// is its best route's path.
func TestCandidatesMatchRIBIn(t *testing.T) {
	if testing.Short() {
		t.Skip("refines the 418-prefix default Internet twice")
	}
	for name, cfg := range map[string]model.RefineConfig{
		"default":    {},
		"local-pref": {UseLocalPref: true},
	} {
		t.Run(name, func(t *testing.T) {
			m := scale1Refined(t, cfg)
			table, err := buildTable(context.Background(), m, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref := m.Clone()
			qy := &query{}
			var checked, localPref int
			for id := bgp.PrefixID(0); int(id) < m.Universe.Len(); id++ {
				if err := ref.RunPrefix(id); err != nil {
					if table.errs[id] == nil || table.errs[id].Error() != err.Error() {
						t.Fatalf("prefix %d: table error %v, propagation %v", id, table.errs[id], err)
					}
					continue
				}
				row := table.row(id)
				for _, q := range ref.Net.Routers() {
					origin := slices.Contains(m.Universe.Origins(id), q.AS)
					base := m.Net.Routers()[q.Index()]
					qy.routes, qy.asns = qy.routes[:0], qy.asns[:0]
					got := qy.rebuild(row, id, base, origin)
					want, wantElim := q.DecideRIB()
					if len(got) != len(want) {
						t.Fatalf("prefix %d router %s: %d candidates rebuilt, RIB holds %d", id, q.ID, len(got), len(want))
					}
					cands := make([]*bgp.Route, len(got))
					for i := range got {
						cands[i] = &got[i]
						if !sameRoute(&got[i], want[i]) {
							t.Fatalf("prefix %d router %s candidate %d:\n got %+v\nwant %+v", id, q.ID, i, got[i], *want[i])
						}
						if got[i].LocalPref != bgp.DefaultLocalPref {
							localPref++
						}
					}
					if _, elim := bgp.Decide(m.Net.Config(), cands, nil); len(got) > 0 && !slices.Equal(elim, wantElim) {
						t.Fatalf("prefix %d router %s: elimination %v, RIB %v", id, q.ID, elim, wantElim)
					}
					if walked, ok := walkBest(qy, row, base); ok != (q.Best() != nil) || ok && !walked.Equal(q.Best().Path) {
						t.Fatalf("prefix %d router %s: walked best %v (%v), simulated %v", id, q.ID, walked, ok, q.Best())
					}
					checked += len(got)
				}
			}
			if checked == 0 {
				t.Fatal("no candidate checked")
			}
			if cfg.UseLocalPref && localPref == 0 {
				t.Fatal("no candidate carries a local-pref import action")
			}
			t.Logf("%d candidates checked, %d with local-pref set", checked, localPref)
		})
	}
}

// sameRoute compares every field of two routes, paths by content.
func sameRoute(a, b *bgp.Route) bool {
	x, y := *a, *b
	x.Path, y.Path = nil, nil
	return reflect.DeepEqual(x, y) && a.Path.Equal(b.Path)
}

// walkBest returns the path of q's best route as the row's slots give
// it, and whether q has one.
func walkBest(qy *query, row []uint16, q *sim.Router) (bgp.Path, bool) {
	switch s := row[q.Index()]; s {
	case rowNone:
		return nil, false
	case rowLocal:
		return bgp.Path{}, true
	default:
		qy.asns = qy.asns[:0]
		ok := qy.walk(row, q.Peers()[s-2].Remote, q.AS)
		return bgp.Path(qy.asns), ok
	}
}

// Allocation bounds of the serving layer, about 10% above the values
// measured on the smoke model. Allocations do not depend on the host,
// so the bounds hold anywhere.
const (
	// maxBuildAllocsPerPrefix covers a one-worker build (88.2 measured):
	// the worker's model clone and the propagations; copying a row
	// allocates nothing. The text table it replaced allocated about
	// 24,500 times per prefix on the scale-1 model.
	maxBuildAllocsPerPrefix = 97
	// maxPredictAllocs covers one k=3 query (6.67 measured): the answer,
	// its strings and slices; the rebuild's scratch is pooled.
	maxPredictAllocs = 7.3
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items at random, so pooled scratch is reallocated.
var raceEnabled bool

// TestTableGates holds the table to its size and the build and query to
// their allocation bounds on the smoke model.
func TestTableGates(t *testing.T) {
	m := smokeRefined(t)
	ctx := context.Background()
	n, routers := m.Universe.Len(), m.NumQuasiRouters()
	table, err := buildTable(ctx, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := 2*len(table.rows), 2*n*routers; got != want {
		t.Fatalf("table rows hold %d bytes, want 2 x %d prefixes x %d quasi-routers = %d", got, n, routers, want)
	}

	build := testing.AllocsPerRun(3, func() {
		if _, err := buildTable(ctx, m, 1); err != nil {
			t.Fatal(err)
		}
	}) / float64(n)

	snap := NewSnapshot(m, 1)
	vantages := sortedVantages(m)
	queries := 0
	predict := testing.AllocsPerRun(5, func() {
		queries = 0
		for id := bgp.PrefixID(0); int(id) < n; id++ {
			for _, v := range vantages {
				if _, err := snap.Predict(ctx, m.Universe.Name(id), v, 3); err != nil {
					t.Fatal(err)
				}
				queries++
			}
		}
	}) / float64(queries)
	t.Logf("%.1f allocations per prefix built, %.2f per query", build, predict)
	if build > maxBuildAllocsPerPrefix {
		t.Errorf("a build allocates %.1f times per prefix, bound %d", build, maxBuildAllocsPerPrefix)
	}
	if predict > maxPredictAllocs && !raceEnabled {
		t.Errorf("a query allocates %.2f times, bound %g", predict, maxPredictAllocs)
	}
}

// TestHookedModelRejected: a session hook changes routes beyond what
// per-prefix policies record, so the routing trees refuse the model
// instead of answering wrongly.
func TestHookedModelRejected(t *testing.T) {
	m := testModel(t, 0)
	m.Net.Routers()[0].Peers()[0].ImportHook = func(*bgp.Route) bool { return true }
	snap := NewSnapshot(m, 1)
	if _, err := snap.Predict(context.Background(), "P1", 1, 0); err == nil {
		t.Fatal("a model with an import hook was served")
	}
}
