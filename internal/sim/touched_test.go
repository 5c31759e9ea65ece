package sim

import (
	"testing"

	"asmodel/internal/bgp"
)

// TestTouchedRouters: after a run, the touched set is exactly the origins
// plus every router that received at least one delivery, and the next run
// starts it fresh.
func TestTouchedRouters(t *testing.T) {
	// Line 1-2-3 plus a disconnected AS4 router: AS4 can never be touched.
	net, rs := buildLine(t, 3)
	lone, err := net.AddRouter(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, net, 1, rs[0].ID)

	got := map[bgp.RouterID]bool{}
	for _, r := range net.touched {
		got[r.ID] = true
	}
	for _, r := range rs {
		if !got[r.ID] {
			t.Errorf("router %s (origin or receiver) missing from touched set", r.ID)
		}
	}
	if got[lone.ID] {
		t.Error("disconnected router reported touched")
	}
	if len(got) != len(rs) {
		t.Errorf("touched %d routers, want %d", len(got), len(rs))
	}

	// A run for a different origin resets the set: only the new origin is
	// guaranteed, the old endpoints must be re-derived, not carried over.
	mustRun(t, net, 2, rs[2].ID)
	got = map[bgp.RouterID]bool{}
	for _, r := range net.touched {
		got[r.ID] = true
	}
	if !got[rs[2].ID] {
		t.Error("origin of the second run not touched")
	}
	if got[lone.ID] {
		t.Error("stale touched entry survived the reset")
	}
}
