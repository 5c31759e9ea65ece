package sim

import (
	"sort"

	"asmodel/internal/bgp"
)

// CopyPoliciesFrom copies src's per-prefix import actions, per-prefix
// export denies, and hooks onto p. The refinement heuristic uses it when
// duplicating a quasi-router: "the new quasi-router has the same neighbors
// and policies as the copied one" (§4.6). Policies installed on the
// *remote* side toward src (such as export filters pointing at src) are
// deliberately not copied — they are keyed by receiving router, so a
// duplicate is born unfiltered.
func (p *Peer) CopyPoliciesFrom(src *Peer) {
	if src.importActs != nil {
		p.importActs = make(map[bgp.PrefixID]importAction, len(src.importActs))
		for k, v := range src.importActs {
			p.importActs[k] = v
		}
	}
	if src.exportDeny != nil {
		p.exportDeny = make(map[bgp.PrefixID]struct{}, len(src.exportDeny))
		for k := range src.exportDeny {
			p.exportDeny[k] = struct{}{}
		}
	}
	p.ImportHook = src.ImportHook
	p.ExportHook = src.ExportHook
}

// ImportAction returns the import action installed for the prefix on
// this session (the zero view when none is).
func (p *Peer) ImportAction(prefix bgp.PrefixID) ImportActionView {
	a := p.importActs[prefix]
	return ImportActionView{Prefix: prefix, Deny: a.deny, HasMED: a.hasMED, MED: a.med, HasLP: a.hasLP, LocalPref: a.lp}
}

// Disabled reports whether the session direction is administratively down.
func (p *Peer) Disabled() bool { return p.disabled }

// SetDisabled administratively disables or enables this session direction.
// A disabled direction neither accepts nor emits routes; disable both
// directions to take a session fully down (what-if link removal). Takes
// effect on the next Run.
func (p *Peer) SetDisabled(down bool) { p.disabled = down }

// ExportDenyCount returns the number of per-prefix export denies installed
// on this session direction (model-size accounting).
func (p *Peer) ExportDenyCount() int { return len(p.exportDeny) }

// ImportActionCount returns the number of per-prefix import actions
// installed on this session direction (model-size accounting).
func (p *Peer) ImportActionCount() int { return len(p.importActs) }

// ImportActionView is the externally visible form of a per-prefix import
// action, used by model serialization.
type ImportActionView struct {
	Prefix    bgp.PrefixID
	Deny      bool
	HasMED    bool
	MED       uint32
	HasLP     bool
	LocalPref uint32
}

// VisitImportActions calls fn for every per-prefix import action on this
// session direction, in ascending prefix order.
func (p *Peer) VisitImportActions(fn func(ImportActionView)) {
	ids := make([]int, 0, len(p.importActs))
	for id := range p.importActs {
		ids = append(ids, int(id))
	}
	sortInts(ids)
	for _, id := range ids {
		a := p.importActs[bgp.PrefixID(id)]
		fn(ImportActionView{
			Prefix: bgp.PrefixID(id),
			Deny:   a.deny,
			HasMED: a.hasMED, MED: a.med,
			HasLP: a.hasLP, LocalPref: a.lp,
		})
	}
}

// VisitExportDenies calls fn for every per-prefix export deny on this
// session direction, in ascending prefix order.
func (p *Peer) VisitExportDenies(fn func(bgp.PrefixID)) {
	ids := make([]int, 0, len(p.exportDeny))
	for id := range p.exportDeny {
		ids = append(ids, int(id))
	}
	sortInts(ids)
	for _, id := range ids {
		fn(bgp.PrefixID(id))
	}
}

func sortInts(s []int) {
	sort.Ints(s)
}
