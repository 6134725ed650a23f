package hemem

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestThresholdMismatch: the defining weakness — a fixed threshold far
// above the workload's counter range promotes nothing.
func TestThresholdMismatch(t *testing.T) {
	pol := New()
	pol.hot = 1 << 14
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	m := w.Run(300 * simclock.Second)
	if m.Promotions != 0 {
		t.Fatalf("%d promotions despite an unreachable threshold", m.Promotions)
	}
}
