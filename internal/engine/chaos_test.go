package engine

import (
	"testing"

	"chrono/internal/faultinject"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// chaosPolicy performs random protect/unprotect/promote/demote/split
// operations to stress the engine's invariants: a fuzzer for the kernel
// surface.
type chaosPolicy struct {
	policy.Base
	k policy.Kernel
	r *rng.Source
}

func (c *chaosPolicy) Name() string { return "chaos" }

// The chaos fuzzer is never checkpointed: its own stream r is not state.
func (c *chaosPolicy) CheckpointState() (any, error)  { return nil, nil }
func (c *chaosPolicy) RestoreCheckpoint([]byte) error { return nil }

func (c *chaosPolicy) Attach(k policy.Kernel) {
	c.k = k
	c.r = rng.New(1234)
	k.Clock().EveryKey("chaos/ops", 100*simclock.Millisecond, func(now simclock.Time) {
		pages := k.Pages()
		for i := 0; i < 64; i++ {
			pg := pages[c.r.Intn(len(pages))]
			if pg == nil {
				continue
			}
			switch c.r.Intn(6) {
			case 0:
				k.Protect(pg)
			case 1:
				k.Unprotect(pg)
			case 2:
				k.TryPromote(pg)
			case 3:
				k.TryDemote(pg)
			case 4:
				k.AccessedTestAndClear(pg)
			case 5:
				if pg.IsHuge() {
					k.SplitHuge(pg)
					pages = k.Pages() // slice grew
				}
			}
		}
	})
}

func (c *chaosPolicy) OnFault(pg *vm.Page, now simclock.Time) {
	// Randomly migrate from the fault path too.
	if c.r.Bool(0.3) {
		c.k.TryPromote(pg)
	}
}

// checkInvariants validates global engine consistency.
func checkInvariants(t *testing.T, e *Engine) {
	t.Helper()
	node := e.Node()
	// Capacity conservation per tier.
	var residentFast, residentSlow int64
	seen := make(map[int64]bool)
	for _, pg := range e.Pages() {
		if pg == nil {
			continue
		}
		if seen[pg.ID] {
			t.Fatal("duplicate page ID in page table")
		}
		seen[pg.ID] = true
		switch pg.Tier {
		case mem.FastTier:
			residentFast += int64(pg.Size)
		case mem.SlowTier:
			residentSlow += int64(pg.Size)
		default:
			t.Fatalf("page %d in invalid tier %v", pg.ID, pg.Tier)
		}
		// Every resident page is reachable through its process's table.
		if got := pg.Proc.PageAt(pg.VPN); got != pg {
			t.Fatalf("page %d not reachable via its process", pg.ID)
		}
	}
	if residentFast != node.Used(mem.FastTier) {
		t.Fatalf("fast tier accounting: pages say %d, node says %d",
			residentFast, node.Used(mem.FastTier))
	}
	if residentSlow != node.Used(mem.SlowTier) {
		t.Fatalf("slow tier accounting: pages say %d, node says %d",
			residentSlow, node.Used(mem.SlowTier))
	}
	if node.Free(mem.FastTier) < 0 || node.Free(mem.SlowTier) < 0 {
		t.Fatal("negative free pages")
	}
	// Per-process aggregates match a recompute.
	for _, p := range e.Processes() {
		ps := e.byPID[p.PID]
		var wantFast, wantSlow float64
		counted := make(map[int64]bool)
		for _, v := range p.VMAs() {
			for vpn := v.Start; vpn < v.End(); vpn++ {
				pg := p.PageAt(vpn)
				if pg == nil || counted[pg.ID] {
					continue
				}
				counted[pg.ID] = true
				w, _ := p.PageWeight(pg)
				if pg.Tier == mem.FastTier {
					wantFast += w
				} else {
					wantSlow += w
				}
			}
		}
		gotFast := ps.wRead[mem.FastTier] + ps.wWrite[mem.FastTier]
		gotSlow := ps.wRead[mem.SlowTier] + ps.wWrite[mem.SlowTier]
		if !close2(gotFast, wantFast) || !close2(gotSlow, wantSlow) {
			t.Fatalf("pid %d aggregates drifted: fast %v/%v slow %v/%v",
				p.PID, gotFast, wantFast, gotSlow, wantSlow)
		}
	}
}

func close2(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 {
		scale = b
	}
	return d/scale < 1e-6
}

// TestChaosInvariants runs the fuzzing policy over a mixed base/huge
// system and validates every invariant repeatedly.
func TestChaosInvariants(t *testing.T) {
	for _, mode := range []PageSizeMode{BasePages, HugePages} {
		e := New(Config{Seed: 777, FastGB: 4, SlowGB: 12})
		p := vm.NewProcess(1, "chaos", 2048)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 2048; i++ {
			w := float64(i%13) / 3
			p.SetPattern(start+i, w, 0.6)
		}
		e.AddProcess(p, 2)
		if err := e.MapAll(mode); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&chaosPolicy{})
		for round := 0; round < 10; round++ {
			e.Run(5 * simclock.Second)
			checkInvariants(t, e)
		}
		if e.M.Promotions == 0 && e.M.Demotions == 0 {
			t.Fatal("chaos produced no migrations; fuzzing is inert")
		}
	}
}

// TestChaosInvariantsUnderFaults reruns the fuzzing policy with the
// aggressive fault plan and the sanitizer forced on: the kernel surface
// must keep every invariant while ~20% of migrations abort and alloc
// failures fire near the watermarks. The chaos policy calls the legacy
// bool Promote/Demote, so this also proves the transient/capacity split
// degrades cleanly for callers that never look at MigrateResult.
func TestChaosInvariantsUnderFaults(t *testing.T) {
	for _, mode := range []PageSizeMode{BasePages, HugePages} {
		e := New(Config{
			Seed: 777, FastGB: 4, SlowGB: 12,
			Faults:      faultinject.Aggressive(),
			DebugChecks: true,
		})
		p := vm.NewProcess(1, "chaos", 2048)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 2048; i++ {
			w := float64(i%13) / 3
			p.SetPattern(start+i, w, 0.6)
		}
		e.AddProcess(p, 2)
		if err := e.MapAll(mode); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&chaosPolicy{})
		for round := 0; round < 10; round++ {
			e.Run(5 * simclock.Second)
			checkInvariants(t, e)
		}
		if e.M.Promotions == 0 && e.M.Demotions == 0 {
			t.Fatal("chaos under faults produced no migrations at all")
		}
		if e.M.FailedPromotions == 0 && e.M.FailedDemotions == 0 {
			t.Fatal("aggressive plan aborted no chaos migrations; injection is inert")
		}
		if e.Injector().Count(faultinject.MigrationBusy) == 0 {
			t.Fatal("no migration-busy faults drawn")
		}
	}
}

// TestChaosDeterminism: the fuzzed run is still fully deterministic.
func TestChaosDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		e := New(Config{Seed: 555, FastGB: 4, SlowGB: 12})
		p := vm.NewProcess(1, "chaos", 1024)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 1024; i++ {
			p.SetPattern(start+i, float64(i%7), 0.5)
		}
		e.AddProcess(p, 1)
		if err := e.MapAll(BasePages); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&chaosPolicy{})
		m := e.Run(20 * simclock.Second)
		return m.Accesses, m.Promotions
	}
	a1, p1 := run()
	a2, p2 := run()
	if a1 != a2 || p1 != p2 {
		t.Fatalf("chaos runs diverged: %v/%v vs %v/%v", a1, p1, a2, p2)
	}
}

// TestChaosDeterminismUnderFaults: a fixed (seed, plan) pins the injected
// faults too — the fuzzed, fault-injected run is bit-reproducible, and
// the injector draws the same counts every time.
func TestChaosDeterminismUnderFaults(t *testing.T) {
	run := func() (float64, int64, int64, int64) {
		e := New(Config{
			Seed: 555, FastGB: 4, SlowGB: 12,
			Faults: faultinject.Aggressive(),
		})
		p := vm.NewProcess(1, "chaos", 1024)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 1024; i++ {
			p.SetPattern(start+i, float64(i%7), 0.5)
		}
		e.AddProcess(p, 1)
		if err := e.MapAll(BasePages); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&chaosPolicy{})
		m := e.Run(20 * simclock.Second)
		return m.Accesses, m.Promotions, m.FailedPromotions, e.Injector().Total()
	}
	a1, p1, f1, i1 := run()
	a2, p2, f2, i2 := run()
	if a1 != a2 || p1 != p2 || f1 != f2 || i1 != i2 {
		t.Fatalf("faulted chaos runs diverged: %v/%v/%v/%v vs %v/%v/%v/%v",
			a1, p1, f1, i1, a2, p2, f2, i2)
	}
	if f1 == 0 || i1 == 0 {
		t.Fatalf("aggressive plan was inert: failed=%d injected=%d", f1, i1)
	}
}
