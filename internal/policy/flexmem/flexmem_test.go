package flexmem_test

import (
	"math"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/policy/flexmem"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestHybridChannels: FlexMem uses both PEBS and hint faults — faults
// occur (unlike Memtis) and some promotions take the timely fault path.
func TestHybridChannels(t *testing.T) {
	pol := flexmem.New()
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	m := w.Run(600 * simclock.Second)
	if m.Faults == 0 {
		t.Fatal("no hint faults: the fault channel is dead")
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if res := w.HotResidency(); res < 0.3 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestTimelyPathFiresAfterClassification: the fault path promotes only
// once a background classification exists, then accounts its promotions.
func TestTimelyPathFiresAfterClassification(t *testing.T) {
	pol := flexmem.New()
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	w.Run(600 * simclock.Second)
	if pol.TimelyPromotions == 0 {
		t.Fatal("no timely (fault-path) promotions in 10 minutes")
	}
}

// TestFlexMemBeatsPureBackgroundOnDrift: after a sudden hotspot move, the
// timely path reacts within a scan pass.
func TestReactsToHotspotMove(t *testing.T) {
	pol := flexmem.New()
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	w.Run(400 * simclock.Second)
	before := pol.TimelyPromotions
	// Move the hotspot: swap hot/cold weights.
	p := w.Proc
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 3072; i++ {
		wgt := 50.0
		if i >= 3072-512 {
			wgt = 1.0
		} else if i >= 512 {
			wgt = 1.0
		}
		p.SetPattern(start+i, wgt, 0.7)
	}
	w.Engine.FlushPattern(p)
	w.Run(400 * simclock.Second)
	if pol.TimelyPromotions <= before {
		t.Fatal("no timely promotions after the hotspot moved")
	}
}

// TestRestoreRejectsBadCycles: the background cycle rotates its process
// order by the cycle count modulo the process count, so a negative count
// in a checkpoint is a restore error, not an index panic at the next
// cycle.
func TestRestoreRejectsBadCycles(t *testing.T) {
	pol := flexmem.New()
	e, err := experiments.Build(pol, &workload.MultiTenant{Tenants: 8}, experiments.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{-7, -1, math.MaxInt} {
		if err := pol.RestoreCheckpoint(policytest.StateWith(t, pol, "cycles", c)); err == nil {
			t.Errorf("restore of cycles %d succeeded", c)
		}
	}
	if err := pol.RestoreCheckpoint(policytest.StateWith(t, pol, "cycles", 7)); err != nil {
		t.Fatal(err)
	}
	e.Run(5 * simclock.Second) // two background cycles over eight tenants
}
