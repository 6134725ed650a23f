package core

import (
	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/sysctl"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// fakeKernel is a scriptable policy.Kernel for white-box Chrono tests. It
// uses CostScale 1, so CIT values equal raw poison-to-fault gaps.
type fakeKernel struct {
	clock *simclock.Clock
	node  *mem.Node
	table *sysctl.Table
	r     *rng.Source

	procs   []*vm.Process
	pages   []*vm.Page
	nextVPN uint64

	protects   []*vm.Page
	unprotects []*vm.Page
	promotes   []*vm.Page
	demotes    []*vm.Page

	// promoteOK / demoteOK script migration success (default true).
	promoteOK func(*vm.Page) bool
	demoteOK  func(*vm.Page) bool
	// transient scripts TryPromote/TryDemote transient aborts: when it
	// returns true the attempt fails with MigrateTransient before any
	// state changes (default: never).
	transient func(*vm.Page) bool
	// inactiveTail scripts the reclaim candidate list.
	inactiveTail []*vm.Page
	// accessed scripts the accessed-bit answer.
	accessed func(*vm.Page) bool

	kernelNS float64
}

func newFakeKernel() *fakeKernel {
	return &fakeKernel{
		clock: simclock.New(),
		node:  mem.NewNode(mem.Config{FastPages: 1000, SlowPages: 3000}),
		table: sysctl.NewTable(),
		r:     rng.New(1),
	}
}

// addPage registers a page resident in the given tier.
func (k *fakeKernel) addPage(tier mem.TierID, size int32) *vm.Page {
	if len(k.procs) == 0 {
		p := vm.NewProcess(1, "fake", 4096)
		k.procs = append(k.procs, p)
		k.nextVPN = p.VMAs()[0].Start
	}
	// Pages pack contiguously by their actual size: the dense page table
	// rejects VPNs outside the VMA, and the scan-pacing tests assume the
	// 4096-page address space (one full scan pass per ~Period).
	pg := &vm.Page{
		ID:   int64(len(k.pages)),
		VPN:  k.nextVPN,
		Proc: k.procs[0],
		Tier: tier,
		Size: size,
	}
	k.nextVPN += uint64(size)
	if size > 1 {
		pg.Flags |= vm.FlagHuge
	}
	k.node.Alloc(tier, int64(size))
	k.pages = append(k.pages, pg)
	k.procs[0].InsertPage(pg)
	return pg
}

func (k *fakeKernel) Clock() *simclock.Clock       { return k.clock }
func (k *fakeKernel) Node() *mem.Node              { return k.node }
func (k *fakeKernel) Processes() []*vm.Process     { return k.procs }
func (k *fakeKernel) Pages() []*vm.Page            { return k.pages }
func (k *fakeKernel) PageGeneration() uint64       { return uint64(len(k.pages)) } // pages are only added
func (k *fakeKernel) RNG() *rng.Source             { return k.r }
func (k *fakeKernel) Sysctl() *sysctl.Table        { return k.table }
func (k *fakeKernel) CostScale() float64           { return 1 }
func (k *fakeKernel) HugeFactor() int              { return 64 }
func (k *fakeKernel) ChargeKernel(ns units.NS)     { k.kernelNS += float64(ns) }
func (k *fakeKernel) CountContextSwitches(n int64) {}
func (k *fakeKernel) FastFree() int64              { return k.node.Free(mem.FastTier) }
func (k *fakeKernel) MigrationsDry() bool          { return false } // no token bucket

func (k *fakeKernel) Protect(pg *vm.Page) {
	pg.Flags |= vm.FlagProtNone
	pg.ProtTS = k.clock.Now()
	k.protects = append(k.protects, pg)
}

func (k *fakeKernel) Unprotect(pg *vm.Page) {
	pg.Flags &^= vm.FlagProtNone
	k.unprotects = append(k.unprotects, pg)
}

func (k *fakeKernel) AccessedTestAndClear(pg *vm.Page) bool {
	if k.accessed != nil {
		return k.accessed(pg)
	}
	return false
}

func (k *fakeKernel) TryPromote(pg *vm.Page) policy.MigrateResult {
	if k.transient != nil && k.transient(pg) {
		return policy.MigrateTransient
	}
	if k.promoteOK != nil && !k.promoteOK(pg) {
		return policy.MigrateNoCapacity
	}
	if pg.Tier == mem.FastTier {
		return policy.MigrateOK
	}
	if _, err := k.node.MovePages(mem.SlowTier, mem.FastTier, int64(pg.Size)); err != nil {
		return policy.MigrateNoCapacity
	}
	pg.Tier = mem.FastTier
	k.promotes = append(k.promotes, pg)
	return policy.MigrateOK
}

func (k *fakeKernel) TryDemote(pg *vm.Page) policy.MigrateResult {
	if k.transient != nil && k.transient(pg) {
		return policy.MigrateTransient
	}
	if k.demoteOK != nil && !k.demoteOK(pg) {
		return policy.MigrateNoCapacity
	}
	if pg.Tier == mem.SlowTier {
		return policy.MigrateOK
	}
	if _, err := k.node.MovePages(mem.FastTier, mem.SlowTier, int64(pg.Size)); err != nil {
		return policy.MigrateNoCapacity
	}
	pg.Tier = mem.SlowTier
	pg.DemoteTS = k.clock.Now()
	k.demotes = append(k.demotes, pg)
	return policy.MigrateOK
}

func (k *fakeKernel) SplitHuge(pg *vm.Page) []*vm.Page { return nil }

func (k *fakeKernel) HugeUtilization(pg *vm.Page) float64 { return 1 }

func (k *fakeKernel) SamplePEBS(s *pebs.Sampler, period units.Sec) int { return 0 }

func (k *fakeKernel) InactiveTail(tier mem.TierID, n int) []*vm.Page {
	if n > len(k.inactiveTail) {
		n = len(k.inactiveTail)
	}
	return k.inactiveTail[:n]
}

// fault simulates the engine's fault delivery for a protected page at the
// current virtual time: clear the poison and invoke the policy.
func (k *fakeKernel) fault(c *Chrono, pg *vm.Page) {
	pg.Flags &^= vm.FlagProtNone
	pg.LastFault = k.clock.Now()
	c.OnFault(pg, k.clock.Now())
}

// advance moves the fake clock forward, firing any events on the way.
// Tests that need inert tickers configure Chrono with very long periods.
func (k *fakeKernel) advance(d simclock.Duration) {
	k.clock.RunUntil(k.clock.Now() + d)
}

// far is a period beyond any test horizon (~13 virtual days).
const far = 1 << 50

// quietOptions returns Options whose Ticking-scan is pushed far beyond
// any test horizon; attach does the same to the other periodic tasks,
// so white-box tests drive Chrono's handlers directly.
func quietOptions() Options {
	return Options{Scan: scan.Config{Period: far, StepPages: 1}}
}
