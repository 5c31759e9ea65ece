package experiments

import (
	"fmt"
	"sort"
	"strings"

	"asmodel/internal/bgp"
	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/stats"
	"asmodel/internal/topology"
)

// WhatIfFidelity (E13) validates the model's central use case — what-if
// prediction (§1: "what if a certain peering link was removed?") — in a
// way the paper could not: because the substrate is synthetic, the same
// link can be removed from the ground truth and the Internet re-simulated,
// giving the true post-edit routing to compare the model's prediction
// against.
//
// For each of the busiest observed links and each affected prefix, the
// experiment removes the link in both worlds and compares, per vantage
// AS, the model's predicted path set with the ground truth's new observed
// path set.
type WhatIfFidelityResult struct {
	Links          int
	Cases          int // (link, prefix, vantage AS) triples compared
	ExactSet       int // predicted path set == true new path set
	PrimaryCovered int // the true paths are a subset of the predictions
	Unaffected     int // triples where the truth did not change at all
}

// WhatIfFidelity runs the study over the nLinks busiest observed links,
// up to perLink affected prefixes each.
func (s *Suite) WhatIfFidelity(nLinks, perLink int) (*WhatIfFidelityResult, string, error) {
	// Refine a model on all observations.
	g := topology.FromDataset(s.Data)
	u := dataset.NewUniverse(s.Data)
	m, err := model.NewInitial(g, u)
	if err != nil {
		return nil, "", err
	}
	if _, err := m.Refine(s.Data, model.RefineConfig{}); err != nil {
		return nil, "", err
	}

	// Busiest observed links between transit ASes.
	crossings := map[topology.Edge]int{}
	prefixesOn := map[topology.Edge]map[string]bool{}
	for _, r := range s.Data.Records {
		for i := 0; i+1 < len(r.Path); i++ {
			e := topology.MakeEdge(r.Path[i], r.Path[i+1])
			crossings[e]++
			set := prefixesOn[e]
			if set == nil {
				set = map[string]bool{}
				prefixesOn[e] = set
			}
			set[r.Prefix] = true
		}
	}
	edges := make([]topology.Edge, 0, len(crossings))
	for e := range crossings {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if crossings[edges[i]] != crossings[edges[j]] {
			return crossings[edges[i]] > crossings[edges[j]]
		}
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	if nLinks > len(edges) {
		nLinks = len(edges)
	}

	res := &WhatIfFidelityResult{Links: nLinks}
	obsASes := s.Data.ObsASes()
	for _, e := range edges[:nLinks] {
		// Affected prefixes, deterministic order, skipping prefixes
		// originated by either endpoint (removing an origin's only link
		// is a reachability question, not a routing one).
		var prefixes []string
		for p := range prefixesOn[e] {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		count := 0
		for _, prefixName := range prefixes {
			if count >= perLink {
				break
			}
			if _, ok := u.ID(prefixName); !ok {
				continue
			}
			gtID, ok := s.Internet.PrefixIDByName(prefixName)
			if !ok {
				continue
			}
			count++

			// Model prediction after removal.
			predicted, err := m.WhatIfDepeer(prefixName, e.A, e.B, obsASes)
			if err != nil {
				return nil, "", err
			}
			predByAS := make(map[bgp.ASN]map[string]bool, len(predicted))
			for _, c := range predicted {
				set := map[string]bool{}
				for _, p := range c.After {
					set[p.String()] = true
				}
				predByAS[c.AS] = set
			}

			// Ground truth after removal.
			s.Internet.DisableASLink(e.A, e.B)
			if err := s.Internet.RunOne(gtID); err != nil {
				s.Internet.EnableASLink(e.A, e.B)
				return nil, "", err
			}
			truthNew := s.Internet.ObservedPathSet()
			s.Internet.EnableASLink(e.A, e.B)
			// Old truth for the unaffected count.
			if err := s.Internet.RunOne(gtID); err != nil {
				return nil, "", err
			}
			truthOld := s.Internet.ObservedPathSet()

			for _, asn := range obsASes {
				truth := truthNew[asn]
				if len(truth) == 0 {
					continue // vantage lost all routes; reachability case
				}
				res.Cases++
				if setsEqual(truthOld[asn], truth) {
					res.Unaffected++
				}
				pred := predByAS[asn]
				if setsEqual(pred, truth) {
					res.ExactSet++
				}
				if subset(truth, pred) {
					res.PrimaryCovered++
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "E13: what-if fidelity — model's de-peering predictions vs re-simulated ground truth\n\n")
	fmt.Fprintf(&b, "links removed: %d (busiest observed), cases (link x prefix x vantage AS): %d\n", res.Links, res.Cases)
	tb := stats.NewTable("metric", "value")
	tb.AddRow("predicted path set exactly right", stats.Pct(res.ExactSet, res.Cases))
	tb.AddRow("true new paths all predicted", stats.Pct(res.PrimaryCovered, res.Cases))
	tb.AddRow("cases where truth was unaffected", stats.Pct(res.Unaffected, res.Cases))
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nThe paper motivates the model with exactly this question class (§1) but\n"+
		"could not validate answers against reality; the synthetic ground truth can.\n")
	return res, b.String(), nil
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// subset reports whether every element of a is in b.
func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
