package engine

import (
	"math"
	"testing"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

func TestQueueMultShape(t *testing.T) {
	if got := queueMult(0); got != 1 {
		t.Fatalf("queueMult(0)=%v", got)
	}
	// Strictly increasing in utilization.
	prev := 0.0
	for u := 0.0; u <= 2.0; u += 0.05 {
		m := queueMult(u)
		if m <= prev {
			t.Fatalf("queueMult not increasing at u=%v", u)
		}
		prev = m
	}
	// Saturation explodes but stays finite (capped at 0.97).
	if m := queueMult(5); math.IsInf(m, 0) || m < 10 {
		t.Fatalf("saturated multiplier %v", m)
	}
	// Negative utilization clamps.
	if queueMult(-1) != 1 {
		t.Fatal("negative utilization not clamped")
	}
}

// TestSlowTrafficInflatesLatency: moving traffic to the slow tier must
// raise its utilization and the measured latency percentiles.
func TestSlowTrafficInflatesLatency(t *testing.T) {
	run := func(slowHeavy bool) (*Metrics, float64) {
		e := newTestEngine(31)
		p := vm.NewProcess(1, "bw", 2000)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 2000; i++ {
			w := 1.0
			if slowHeavy {
				// Hot mass at the end (starts in the slow tier).
				if i >= 1500 {
					w = 100
				}
			} else {
				// Hot mass at the front (starts in the fast tier).
				if i < 500 {
					w = 100
				}
			}
			p.SetPattern(start+i, w, 0.3) // write-heavy: Optane's weak side
		}
		e.AddProcess(p, 8)
		if err := e.MapAll(BasePages); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&recordingPolicy{}) // no migration: placement frozen
		m := e.Run(30 * simclock.Second)
		return m, e.SlowUtilization()
	}
	fastM, fastUtil := run(false)
	slowM, slowUtil := run(true)
	if slowUtil <= fastUtil {
		t.Fatalf("slow-heavy utilization %v <= fast-heavy %v", slowUtil, fastUtil)
	}
	if slowM.Throughput() >= fastM.Throughput() {
		t.Fatalf("slow-heavy throughput %v >= fast-heavy %v",
			slowM.Throughput(), fastM.Throughput())
	}
	if slowM.Lat.Percentile(0.9) <= fastM.Lat.Percentile(0.9) {
		t.Fatalf("slow-heavy P90 %v <= fast-heavy %v",
			slowM.Lat.Percentile(0.9), fastM.Lat.Percentile(0.9))
	}
}

// TestWriteHeavySuffersMoreOnSlow: Optane's read/write asymmetry — the
// same slow-resident mass hurts more when written.
func TestWriteHeavySuffersMoreOnSlow(t *testing.T) {
	run := func(readFrac float64) float64 {
		e := newTestEngine(33)
		p := vm.NewProcess(1, "rw", 2000)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 2000; i++ {
			w := 1.0
			if i >= 1500 {
				w = 100
			}
			p.SetPattern(start+i, w, readFrac)
		}
		e.AddProcess(p, 8)
		if err := e.MapAll(BasePages); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&recordingPolicy{})
		return e.Run(30 * simclock.Second).Throughput()
	}
	readHeavy := run(0.95)
	writeHeavy := run(0.05)
	if writeHeavy >= readHeavy {
		t.Fatalf("write-heavy %v >= read-heavy %v on a slow-resident hot set",
			writeHeavy, readHeavy)
	}
}

// TestMigrationTrafficContends: sustained migration raises slow-tier
// utilization even with demand traffic unchanged.
func TestMigrationTrafficContends(t *testing.T) {
	e := newTestEngine(35)
	addUniformProc(e, 1, 2000, 0.7)
	e.MapAll(BasePages)
	e.AttachPolicy(&recordingPolicy{})
	e.Run(5 * simclock.Second)
	before := e.SlowUtilization()
	// Churn pages back and forth for a while.
	tk := e.Clock().EveryKey("test/churn", 250*simclock.Millisecond, func(now simclock.Time) {
		moved := 0
		for _, pg := range e.Pages() {
			if moved >= 20 {
				break
			}
			if pg.Tier == mem.SlowTier {
				if e.TryPromote(pg) == policy.MigrateOK {
					moved++
				}
			}
		}
		for _, pg := range e.Pages() {
			if moved >= 40 {
				break
			}
			if pg.Tier == mem.FastTier {
				if e.TryDemote(pg) == policy.MigrateOK {
					moved++
				}
			}
		}
	})
	e.Run(10 * simclock.Second)
	tk.Cancel()
	after := e.SlowUtilization()
	if after <= before {
		t.Fatalf("migration churn did not raise slow utilization: %v -> %v", before, after)
	}
}

// TestKernelTimePenalizesThroughput: charging large kernel time lowers
// the closed-loop rates.
func TestKernelTimePenalizesThroughput(t *testing.T) {
	run := func(burnNS units.NS) float64 {
		e := newTestEngine(37)
		addUniformProc(e, 1, 1000, 1)
		e.MapAll(BasePages)
		e.AttachPolicy(&recordingPolicy{})
		if burnNS > 0 {
			e.Clock().EveryKey("test/burn", 250*simclock.Millisecond, func(simclock.Time) {
				e.ChargeKernel(burnNS)
			})
		}
		return e.Run(20 * simclock.Second).Throughput()
	}
	clean := run(0)
	// Burn ~40% of one CPU-equivalent of the epoch.
	burned := run(0.4 * 0.25 * 1e9)
	if burned >= clean {
		t.Fatalf("kernel burn did not reduce throughput: %v vs %v", burned, clean)
	}
}

// TestFaultOverheadFeedsBack: a policy that faults constantly reduces the
// faulting process's throughput via the per-access overhead estimate.
func TestFaultOverheadFeedsBack(t *testing.T) {
	run := func(protectAll bool) float64 {
		e := newTestEngine(39)
		addUniformProc(e, 1, 1000, 1)
		e.MapAll(BasePages)
		e.AttachPolicy(&recordingPolicy{})
		if protectAll {
			e.Clock().EveryKey("test/protect", simclock.Second, func(simclock.Time) {
				for _, pg := range e.Pages() {
					e.Protect(pg)
				}
			})
		}
		return e.Run(30 * simclock.Second).Throughput()
	}
	quiet := run(false)
	storm := run(true)
	if storm >= quiet {
		t.Fatalf("fault storm did not reduce throughput: %v vs %v", storm, quiet)
	}
}
