package linuxnb

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestFasterScanMoreFaults: halving the scan period roughly doubles the
// fault rate.
func TestFasterScanMoreFaults(t *testing.T) {
	run := func(period simclock.Duration) float64 {
		pol := New()
		pol.scanCfg.Period = period
		w := policytest.Build(t, pol, 3000, 500, engine.BasePages)
		return w.Run(240 * simclock.Second).Faults
	}
	slow := run(60 * simclock.Second)
	fast := run(30 * simclock.Second)
	if fast < slow*1.5 {
		t.Fatalf("faults slow=%v fast=%v; faster scan should fault more", slow, fast)
	}
}
