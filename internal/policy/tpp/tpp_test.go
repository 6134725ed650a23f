package tpp_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/policy/policytest"
	"chrono/internal/policy/tpp"
	"chrono/internal/simclock"
)

// TestSecondChancePromotion: TPP needs two faults within the recency
// window, so nothing promotes during the first scan pass.
func TestSecondChancePromotion(t *testing.T) {
	w := policytest.Build(t, tpp.New(), 3000, 500, engine.BasePages)
	m := w.Run(70 * simclock.Second) // one full pass + margin
	if m.Promotions != 0 {
		t.Fatalf("%d promotions within the first pass; TPP requires re-reference", m.Promotions)
	}
	m = w.Run(300 * simclock.Second)
	if m.Promotions == 0 {
		t.Fatal("no promotions after re-reference window")
	}
	if res := w.HotResidency(); res < 0.5 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestHeadroomWatermark: TPP raises the pro watermark for allocation
// headroom.
func TestHeadroomWatermark(t *testing.T) {
	w := policytest.Build(t, tpp.New(), 2000, 300, engine.BasePages)
	wm := w.Engine.Node().Watermarks(mem.FastTier)
	if wm.Pro <= wm.High {
		t.Fatalf("pro watermark %d not raised above high %d", wm.Pro, wm.High)
	}
}

// TestOnlySlowTierPoisoned: TPP skips fast-tier pages in its scan — a
// page that never lived in the slow tier must never have taken a hint
// fault.
func TestOnlySlowTierPoisoned(t *testing.T) {
	w := policytest.Build(t, tpp.New(), 3000, 500, engine.BasePages)
	w.Run(200 * simclock.Second)
	for _, pg := range w.Engine.Pages() {
		if pg == nil {
			continue
		}
		if pg.LastFault > 0 && !w.Engine.EverSlow(pg.ID) {
			t.Fatalf("always-fast page %d took a hint fault under TPP", pg.ID)
		}
	}
}
