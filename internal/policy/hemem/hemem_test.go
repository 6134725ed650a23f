package hemem_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/hemem"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestFixedThresholdPromotion: pages whose counters exceed the fixed
// threshold are promoted; no hint faults occur.
func TestFixedThresholdPromotion(t *testing.T) {
	w := policytest.Build(t, hemem.New(), 3072, 512, engine.HugePages)
	m := w.Run(600 * simclock.Second)
	if m.Faults != 0 {
		t.Fatalf("%v hint faults under HeMem", m.Faults)
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if res := w.HotResidency(); res < 0.4 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestColdDemotionUnderPressure: fast pages below the cold threshold are
// demoted when the watermark is short.
func TestColdDemotionUnderPressure(t *testing.T) {
	w := policytest.Build(t, hemem.New(), 3500, 600, engine.HugePages)
	m := w.Run(600 * simclock.Second)
	if m.Demotions == 0 {
		t.Fatal("no demotions under pressure")
	}
}
