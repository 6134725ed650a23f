package autotiering

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestHighKernelOverhead: maintaining the LAP vectors across all pages
// costs significant kernel time — the 14.1% characteristic of Figure 8.
func TestHighKernelOverhead(t *testing.T) {
	at := policytest.Build(t, New(), 3000, 500, engine.BasePages)
	mAT := at.Run(300 * simclock.Second)
	if mAT.KernelNS == 0 {
		t.Fatal("no kernel time charged")
	}
	// The background LAP pass alone must charge more kernel time than
	// the fault path: compare against a run with the LAP cost all but
	// zeroed out.
	pol := New()
	pol.lapCost = 0.001
	cheap := policytest.Build(t, pol, 3000, 500, engine.BasePages)
	mCheap := cheap.Run(300 * simclock.Second)
	if mAT.KernelTimeFrac() <= mCheap.KernelTimeFrac() {
		t.Fatalf("LAP maintenance cost invisible: %v vs %v",
			mAT.KernelTimeFrac(), mCheap.KernelTimeFrac())
	}
}
