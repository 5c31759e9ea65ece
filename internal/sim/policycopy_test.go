package sim

import (
	"testing"

	"asmodel/internal/bgp"
)

func TestCopyPoliciesFrom(t *testing.T) {
	net := NewNetwork(bgp.QuasiRouterConfig)
	a, _ := net.AddRouter(1, 0)
	b, _ := net.AddRouter(2, 0)
	c, _ := net.AddRouter(1, 1) // second quasi-router of AS1
	pab, _, _ := net.Connect(a, b)
	pcb, _, _ := net.Connect(c, b)

	pab.SetImportMED(3, 7)
	pab.SetImportLocalPref(3, 150)
	pab.DenyImport(4)
	pab.DenyExport(5)
	hookCalled := false
	pab.ImportHook = func(r *bgp.Route) bool { hookCalled = true; return true }

	pcb.CopyPoliciesFrom(pab)
	if a := pcb.ImportAction(3); !a.HasMED || a.MED != 7 {
		t.Errorf("MED not copied: %+v", a)
	}
	if !pcb.ExportDenied(5) {
		t.Error("export deny not copied")
	}
	if pcb.ImportActionCount() != 2 || pcb.ExportDenyCount() != 1 {
		t.Errorf("counts: %d %d", pcb.ImportActionCount(), pcb.ExportDenyCount())
	}
	if pcb.ImportHook == nil {
		t.Error("hook not copied")
	}
	// The copy is independent: mutating it must not touch the source.
	pcb.ClearImport(3)
	if !pab.ImportAction(3).HasMED {
		t.Error("copy shares import map with source")
	}
	pcb.AllowExport(5)
	if !pab.ExportDenied(5) {
		t.Error("copy shares export map with source")
	}
	_ = hookCalled
}

func TestVisitors(t *testing.T) {
	net := NewNetwork(bgp.QuasiRouterConfig)
	a, _ := net.AddRouter(1, 0)
	b, _ := net.AddRouter(2, 0)
	p, _, _ := net.Connect(a, b)
	p.SetImportMED(5, 10)
	p.SetImportLocalPref(3, 200)
	p.DenyImport(1)
	p.DenyExport(2)
	p.DenyExport(9)

	var imports []ImportActionView
	p.VisitImportActions(func(v ImportActionView) { imports = append(imports, v) })
	if len(imports) != 3 {
		t.Fatalf("imports=%+v", imports)
	}
	// Sorted by prefix: 1 (deny), 3 (lp), 5 (med).
	if !imports[0].Deny || imports[0].Prefix != 1 {
		t.Errorf("imports[0]=%+v", imports[0])
	}
	if !imports[1].HasLP || imports[1].LocalPref != 200 {
		t.Errorf("imports[1]=%+v", imports[1])
	}
	if !imports[2].HasMED || imports[2].MED != 10 {
		t.Errorf("imports[2]=%+v", imports[2])
	}

	var denies []bgp.PrefixID
	p.VisitExportDenies(func(id bgp.PrefixID) { denies = append(denies, id) })
	if len(denies) != 2 || denies[0] != 2 || denies[1] != 9 {
		t.Errorf("denies=%v", denies)
	}

	// Empty visitors are no-ops.
	q := b.PeerTo(a.ID)
	q.VisitImportActions(func(ImportActionView) { t.Error("unexpected import") })
	q.VisitExportDenies(func(bgp.PrefixID) { t.Error("unexpected deny") })
	if q.ImportAction(5).HasMED {
		t.Error("phantom MED")
	}
	if p.ImportAction(3).HasMED {
		t.Error("LP-only action reported as MED")
	}
}

func TestDisabledSession(t *testing.T) {
	net, rs := buildLine(t, 3)
	p01 := rs[0].PeerTo(rs[1].ID)
	p10 := rs[1].PeerTo(rs[0].ID)
	if p01.Disabled() {
		t.Error("sessions start enabled")
	}
	p01.SetDisabled(true)
	p10.SetDisabled(true)
	mustRun(t, net, 1, rs[0].ID)
	if rs[1].Best() != nil || rs[2].Best() != nil {
		t.Error("routes crossed a disabled session")
	}
	p01.SetDisabled(false)
	p10.SetDisabled(false)
	mustRun(t, net, 1, rs[0].ID)
	if rs[2].Best() == nil {
		t.Error("re-enabled session should carry routes again")
	}
}

func TestDisabledOneDirection(t *testing.T) {
	// Disabling only the import direction at the receiver also kills the
	// flow (belt and braces: both import and export honor the flag).
	net, rs := buildLine(t, 2)
	rs[1].PeerTo(rs[0].ID).SetDisabled(true)
	mustRun(t, net, 1, rs[0].ID)
	if rs[1].Best() != nil {
		t.Error("route crossed half-disabled session")
	}
}

func TestRoutersAccessor(t *testing.T) {
	net, _ := buildLine(t, 3)
	if len(net.Routers()) != 3 {
		t.Errorf("Routers()=%d", len(net.Routers()))
	}
}
