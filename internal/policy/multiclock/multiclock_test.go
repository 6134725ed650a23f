package multiclock_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/policy/multiclock"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestNoHintFaults: Multi-Clock works from accessed bits only; it must
// not generate a single hint fault.
func TestNoHintFaults(t *testing.T) {
	w := policytest.Build(t, multiclock.New(), 3000, 500, engine.BasePages)
	m := w.Run(300 * simclock.Second)
	if m.Faults != 0 {
		t.Fatalf("%v hint faults under Multi-Clock", m.Faults)
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions")
	}
}

// TestClimbersGetPromoted: the clearly hot head climbs the CLOCK levels
// and reaches the fast tier.
func TestClimbersGetPromoted(t *testing.T) {
	w := policytest.Build(t, multiclock.New(), 3000, 400, engine.BasePages)
	w.Run(900 * simclock.Second)
	// Multi-Clock's binary accessed-bit signal makes it a mediocre
	// classifier (the paper's point); require clear progress from the
	// all-slow start, not perfection.
	if res := w.HotResidency(); res < 0.25 {
		t.Fatalf("hot residency %.2f after 15 minutes", res)
	}
	mc := w.Engine.Policy().(*multiclock.Policy)
	slowLevels := mc.LevelSizes(mem.SlowTier)
	fastLevels := mc.LevelSizes(mem.FastTier)
	var slowTotal, fastTotal int
	for i := range slowLevels {
		slowTotal += slowLevels[i]
		fastTotal += fastLevels[i]
	}
	// Every resident page is tracked in exactly one tier clock.
	if slowTotal+fastTotal != 3000 {
		t.Fatalf("clock population %d+%d != 3000", slowTotal, fastTotal)
	}
}

// TestMigratedPagesStayTracked: kernel-initiated demotions must not drop
// pages from the clocks (the OnMigrated sync).
func TestMigratedPagesStayTracked(t *testing.T) {
	w := policytest.Build(t, multiclock.New(), 3500, 600, engine.BasePages)
	m := w.Run(400 * simclock.Second)
	if m.Demotions == 0 {
		t.Skip("no demotions occurred; nothing to verify")
	}
	mc := w.Engine.Policy().(*multiclock.Policy)
	total := 0
	for _, tier := range []mem.TierID{mem.FastTier, mem.SlowTier} {
		for _, n := range mc.LevelSizes(tier) {
			total += n
		}
	}
	if total != 3500 {
		t.Fatalf("clock population %d != 3500 after migrations", total)
	}
}
