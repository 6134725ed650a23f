package telescope_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/policytest"
	"chrono/internal/policy/telescope"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// TestRegionProfilingPromotes: streak-accumulating leaves in the hot
// region get promoted without any hint faults.
func TestRegionProfilingPromotes(t *testing.T) {
	pol := telescope.New()
	w := policytest.Build(t, pol, 3000, 500, engine.BasePages)
	m := w.Run(600 * simclock.Second)
	if m.Faults != 0 {
		t.Fatalf("%v hint faults under Telescope", m.Faults)
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if res := w.HotResidency(); res < 0.4 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestTelescopingBoundsCost: only referenced regions stay open, so the
// profiler's page-level work tracks the accessed footprint, not total
// memory. With a mostly-idle address space (zero-weight tail), the open
// set must stay well below the region count.
func TestTelescopingBoundsCost(t *testing.T) {
	pol := telescope.New()
	e := engine.New(engine.Config{Seed: 5, FastGB: 4, SlowGB: 12})
	p := vm.NewProcess(1, "sparse", 3000)
	start := p.VMAs()[0].Start
	// Only the last 300 pages are ever accessed; the rest are idle.
	for i := uint64(2700); i < 3000; i++ {
		p.SetPattern(start+i, 10, 0.7)
	}
	e.AddProcess(p, 1)
	if err := e.MapAll(engine.BasePages); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(pol)
	e.Run(120 * simclock.Second)
	if pol.OpenRegions == 0 {
		t.Fatal("nothing telescoped open")
	}
	total := 3000 / 64
	if pol.OpenRegions > total/2 {
		t.Fatalf("%d of %d regions open on a 10%%-dense space; idle subtrees not collapsing",
			pol.OpenRegions, total)
	}
}

// TestFixedWindowCoarseness: Table 1's point — the fixed window caps
// frequency resolution, so warm and hot pages with rates above
// 1/window are indistinguishable by streak.
func TestFixedWindowCoarseness(t *testing.T) {
	pol := telescope.New()
	w := policytest.Build(t, pol, 3000, 500, engine.BasePages)
	w.Run(600 * simclock.Second)
	// Even with convergence, PPR-style overreach: warm tail pages whose
	// per-window reference probability is high also accumulate streaks,
	// so unique promotions exceed the true hot set.
	uniq := w.Engine.UniquePromotedPages()
	if uniq == 0 {
		t.Fatal("no promotions")
	}
}
