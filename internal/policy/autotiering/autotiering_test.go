package autotiering_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/autotiering"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestLAPGatedPromotion: a page needs PromoteThreshold bits of fault
// history before opportunistic promotion, so the first pass promotes
// nothing.
func TestLAPGatedPromotion(t *testing.T) {
	w := policytest.Build(t, autotiering.New(), 3000, 500, engine.BasePages)
	m := w.Run(65 * simclock.Second)
	if m.Promotions != 0 {
		t.Fatalf("%d promotions within the first scan pass (LAP should gate)", m.Promotions)
	}
	m = w.Run(300 * simclock.Second)
	if m.Promotions == 0 {
		t.Fatal("no promotions once LAP history accumulated")
	}
	if res := w.HotResidency(); res < 0.5 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestBackgroundDemotionUnderPressure: pages with empty LAP vectors are
// demoted when the fast tier is short.
func TestBackgroundDemotion(t *testing.T) {
	w := policytest.Build(t, autotiering.New(), 3500, 600, engine.BasePages)
	m := w.Run(400 * simclock.Second)
	if m.Demotions == 0 {
		t.Fatal("no demotions despite fast-tier pressure")
	}
}
