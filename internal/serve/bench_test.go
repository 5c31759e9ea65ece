package serve

import (
	"context"
	"slices"
	"sync"
	"testing"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/gen"
	"asmodel/internal/model"
	"asmodel/internal/topology"
)

// scale1Refined refines the benchmark's serve model: the default
// generated Internet (418 ASes, seed 1) on the 0.5/seed-1 training half
// of its ground truth. cfg selects the refinement variant.
func scale1Refined(tb testing.TB, cfg model.RefineConfig) *model.Model {
	tb.Helper()
	in, err := gen.Generate(gen.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := in.RunAll()
	if err != nil {
		tb.Fatal(err)
	}
	ds = ds.Normalize()
	train, _ := ds.SplitByObsPoint(0.5, 1)
	m, err := model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Refine(train, cfg); err != nil {
		tb.Fatal(err)
	}
	return m
}

var (
	benchModelOnce sync.Once
	benchModel     *model.Model
)

// benchServeModel is scale1Refined with the default refinement, built
// once per test binary.
func benchServeModel(b *testing.B) *model.Model {
	benchModelOnce.Do(func() { benchModel = scale1Refined(b, model.RefineConfig{}) })
	return benchModel
}

// sortedVantages returns every AS with quasi-routers, ascending.
func sortedVantages(m *model.Model) []bgp.ASN {
	var vs []bgp.ASN
	for asn := range m.QuasiRouterHistogram() {
		vs = append(vs, asn)
	}
	slices.Sort(vs)
	return vs
}

// BenchmarkBuildTable builds the scale-1 serve model's route table on
// one worker, as a replacement build does on a 2-CPU host.
func BenchmarkBuildTable(b *testing.B) {
	m := benchServeModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildTable(context.Background(), m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict answers one query per prefix of the scale-1 serve
// model, vantages cycling in AS order and k=3 as the benchmark's
// clients send; one op is one query.
func BenchmarkPredict(b *testing.B) {
	m := benchServeModel(b)
	snap := NewSnapshot(m, 1)
	vantages := sortedVantages(m)
	u := m.Universe
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := bgp.PrefixID(i % u.Len())
		if _, err := snap.Predict(ctx, u.Name(id), vantages[i%len(vantages)], 3); err != nil {
			b.Fatal(err)
		}
	}
}
