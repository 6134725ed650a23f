package engine

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// buildLimited maps one hot-head process with a cgroup memory limit.
func buildLimited(t *testing.T, limit int64) (*Engine, *vm.Process) {
	t.Helper()
	e := newTestEngine(41)
	p := vm.NewProcess(1, "lim", 3000)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 3000; i++ {
		w := 0.01 // mostly very cold
		if i >= 2500 {
			w = 50 // hot tail (starts in the slow tier)
		}
		p.SetPattern(start+i, w, 0.7)
	}
	p.MemLimit = limit
	e.AddProcess(p, 2)
	if err := e.MapAll(BasePages); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(&promoteOnFault{})
	return e, p
}

func TestSwapOutAccounting(t *testing.T) {
	e, p := buildLimited(t, 0)
	e.Run(simclock.Second)
	var victim *vm.Page
	for _, pg := range e.Pages() {
		if pg.Tier == mem.SlowTier {
			victim = pg
			break
		}
	}
	slowBefore := e.Node().Used(mem.SlowTier)
	if !e.SwapOut(victim) {
		t.Fatal("SwapOut failed")
	}
	if !victim.Flags.Has(vm.FlagSwapped) {
		t.Fatal("flag not set")
	}
	if e.Node().Used(mem.SlowTier) != slowBefore-1 {
		t.Fatal("slow tier not freed")
	}
	if e.ResidentSwap(p) != 1 || e.SwappedOut() != 1 {
		t.Fatal("swap residency counters wrong")
	}
	if e.M.SwapOuts != 1 {
		t.Fatalf("SwapOuts=%d", e.M.SwapOuts)
	}
	// Double swap-out is rejected; fast pages are rejected.
	if e.SwapOut(victim) {
		t.Fatal("double SwapOut succeeded")
	}
}

func TestSwappedPageOperations(t *testing.T) {
	e, _ := buildLimited(t, 0)
	e.Run(simclock.Second)
	var pg *vm.Page
	for _, c := range e.Pages() {
		if c.Tier == mem.SlowTier {
			pg = c
			break
		}
	}
	e.SwapOut(pg)
	// Protect on a swapped page is a no-op.
	e.Protect(pg)
	if pg.Flags.Has(vm.FlagProtNone) {
		t.Fatal("swapped page poisoned")
	}
	// Demote is rejected.
	if e.TryDemote(pg) == policy.MigrateOK {
		t.Fatal("demoting a swapped page succeeded")
	}
	// Promote swap-ins to the fast tier.
	if e.TryPromote(pg) != policy.MigrateOK {
		t.Fatal("promote (swap-in) failed")
	}
	if pg.Flags.Has(vm.FlagSwapped) || pg.Tier != mem.FastTier {
		t.Fatal("swap-in state wrong")
	}
	if e.M.SwapIns != 1 {
		t.Fatalf("SwapIns=%d", e.M.SwapIns)
	}
}

func TestCgroupReclaimEnforcesLimit(t *testing.T) {
	// Resident 3000 pages, limit 2000: reclaim must swap ~1000 out.
	e, p := buildLimited(t, 2000)
	e.Run(60 * simclock.Second)
	resident := e.ResidentFast(p) + e.ResidentSlow(p)
	if resident > 2100 {
		t.Fatalf("resident %d pages, limit 2000 not enforced", resident)
	}
	if e.ResidentSwap(p) < 900 {
		t.Fatalf("only %d pages swapped", e.ResidentSwap(p))
	}
}

func TestCgroupReclaimSparesHotPages(t *testing.T) {
	e, p := buildLimited(t, 2000)
	e.Run(120 * simclock.Second)
	// The hot tail (weight 50) must stay resident: reclaim picks idle
	// pages first.
	start := p.VMAs()[0].Start
	swappedHot := 0
	for i := uint64(2500); i < 3000; i++ {
		if pg := p.PageAt(start + i); pg != nil && pg.Flags.Has(vm.FlagSwapped) {
			swappedHot++
		}
	}
	if swappedHot > 50 {
		t.Fatalf("%d of 500 hot pages were reclaimed", swappedHot)
	}
}

func TestSwapLatencyReducesThroughput(t *testing.T) {
	// Swapping the HOT set must devastate throughput; swapping cold
	// pages must barely matter.
	run := func(swapHot bool) float64 {
		e, p := buildLimited(t, 0)
		e.Run(simclock.Second)
		start := p.VMAs()[0].Start
		count := 0
		for i := uint64(0); i < 3000 && count < 400; i++ {
			idx := i
			if swapHot {
				idx = 3000 - 1 - i
			}
			pg := p.PageAt(start + idx)
			if pg != nil && pg.Tier == mem.SlowTier && e.SwapOut(pg) {
				count++
			}
		}
		m := e.Run(20 * simclock.Second)
		return m.Throughput()
	}
	cold := run(false)
	hot := run(true)
	if hot >= cold*0.7 {
		t.Fatalf("swapping the hot set (%v) should hurt far more than cold (%v)", hot, cold)
	}
}

func TestUnlimitedProcessNeverReclaimed(t *testing.T) {
	e, p := buildLimited(t, 0)
	e.Run(30 * simclock.Second)
	if e.ResidentSwap(p) != 0 {
		t.Fatal("pages reclaimed without a memory limit")
	}
}
