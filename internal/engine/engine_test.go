package engine

import (
	"math"
	"testing"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// newTestEngine builds a small deterministic engine: 4 GB fast + 12 GB
// slow at 256 pages/GB = 1024 fast + 3072 slow pages.
func newTestEngine(seed uint64) *Engine {
	return New(Config{Seed: seed, FastGB: 4, SlowGB: 12})
}

// drainTo replays pending faults and master events up to deadline — the
// white-box twin of runLoop for tests that drive the fault path without a
// full Run (fault timers live in the shard queues, not the clock, so a bare
// Clock().RunUntil would never deliver them).
func drainTo(e *Engine, deadline simclock.Time) {
	for !e.clock.Stopped() {
		next := e.clock.NextAt()
		limit := deadline
		if next < limit {
			limit = next
		}
		if e.drainFaults(limit) {
			continue
		}
		if next > deadline {
			break
		}
		if !e.clock.StepAfter() {
			break
		}
	}
	if !e.clock.Stopped() && e.clock.Now() < deadline {
		e.clock.AdvanceTo(deadline)
	}
}

// addUniformProc maps one process with n uniformly weighted pages.
func addUniformProc(e *Engine, pid int, n uint64, readFrac float64) *vm.Process {
	p := vm.NewProcess(pid, "t", n)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < n; i++ {
		p.SetPattern(start+i, 1, readFrac)
	}
	e.AddProcess(p, 1)
	return p
}

func TestMappingFillsFastThenSlow(t *testing.T) {
	e := newTestEngine(1)
	addUniformProc(e, 1, 2000, 1)
	if err := e.MapAll(BasePages); err != nil {
		t.Fatal(err)
	}
	high := e.Node().Watermarks(mem.FastTier).High
	usedFast := e.Node().Used(mem.FastTier)
	// Fast fills down to (roughly) its high watermark, remainder to slow.
	if usedFast < e.Node().Capacity(mem.FastTier)-high-64 || usedFast > e.Node().Capacity(mem.FastTier) {
		t.Fatalf("fast used %d of %d (high %d)", usedFast, e.Node().Capacity(mem.FastTier), high)
	}
	if e.Node().Used(mem.SlowTier) != 2000-usedFast {
		t.Fatal("slow accounting inconsistent")
	}
}

func TestMapAllInterleavesAcrossProcesses(t *testing.T) {
	e := newTestEngine(1)
	addUniformProc(e, 1, 1500, 1)
	addUniformProc(e, 2, 1500, 1)
	if err := e.MapAll(BasePages); err != nil {
		t.Fatal(err)
	}
	f1 := e.ResidentFast(e.Processes()[0])
	f2 := e.ResidentFast(e.Processes()[1])
	if f1 == 0 || f2 == 0 {
		t.Fatalf("interleave broken: proc fast residency %d / %d", f1, f2)
	}
	ratio := float64(f1) / float64(f2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("fast residency skewed: %d vs %d", f1, f2)
	}
}

func TestMapOverCapacityFails(t *testing.T) {
	e := newTestEngine(1)
	addUniformProc(e, 1, 5000, 1) // 5000 > 1024+3072
	if err := e.MapAll(BasePages); err == nil {
		t.Fatal("mapping beyond all capacity succeeded")
	}
}

func TestHugeMapping(t *testing.T) {
	e := newTestEngine(1)
	addUniformProc(e, 1, 256, 1)
	if err := e.MapAll(HugePages); err != nil {
		t.Fatal(err)
	}
	hf := e.Config().HugeFactor
	count := 0
	for _, pg := range e.Pages() {
		if pg == nil {
			continue
		}
		count++
		if int(pg.Size) != hf {
			t.Fatalf("page size %d, want HugeFactor %d", pg.Size, hf)
		}
		if !pg.Flags.Has(vm.FlagHuge) {
			t.Fatal("huge page missing FlagHuge")
		}
	}
	if count != 256/hf {
		t.Fatalf("%d huge pages for 256 base", count)
	}
}

func TestPromoteDemoteAccounting(t *testing.T) {
	e := newTestEngine(1)
	p := addUniformProc(e, 1, 2000, 1)
	if err := e.MapAll(BasePages); err != nil {
		t.Fatal(err)
	}
	e.Run(simclock.Second) // prime rates and token bucket
	var slowPage *vm.Page
	for _, pg := range e.Pages() {
		if pg.Tier == mem.SlowTier {
			slowPage = pg
			break
		}
	}
	if slowPage == nil {
		t.Fatal("no slow page after mapping 2000 pages")
	}
	fastBefore := e.ResidentFast(p)
	if e.TryPromote(slowPage) != policy.MigrateOK {
		t.Fatal("promote failed")
	}
	if slowPage.Tier != mem.FastTier {
		t.Fatal("page tier not updated")
	}
	if e.ResidentFast(p) != fastBefore+1 {
		t.Fatal("residentFast not updated")
	}
	if e.M.Promotions != 1 {
		t.Fatalf("Promotions=%d", e.M.Promotions)
	}
	if e.TryDemote(slowPage) != policy.MigrateOK {
		t.Fatal("demote failed")
	}
	if slowPage.Tier != mem.SlowTier || e.M.Demotions < 1 {
		t.Fatal("demotion accounting wrong")
	}
	if !e.everSlow[slowPage.ID] || !e.everPromoted[slowPage.ID] {
		t.Fatal("ever-slow/ever-promoted tracking wrong")
	}
}

func TestPromoteIdempotentOnFastPage(t *testing.T) {
	e := newTestEngine(1)
	addUniformProc(e, 1, 100, 1)
	e.MapAll(BasePages)
	pg := e.Pages()[0]
	if pg.Tier != mem.FastTier {
		t.Skip("first page not fast")
	}
	if e.TryPromote(pg) != policy.MigrateOK {
		t.Fatal("promote of fast page should be a no-op success")
	}
	if e.M.Promotions != 0 {
		t.Fatal("no-op promote counted")
	}
}

func TestAggregateConsistencyAfterMigrations(t *testing.T) {
	e := newTestEngine(3)
	p := addUniformProc(e, 1, 2000, 0.7)
	if err := e.MapAll(BasePages); err != nil {
		t.Fatal(err)
	}
	e.Run(simclock.Second)
	// Migrate a bunch of pages both ways.
	moved := 0
	for _, pg := range e.Pages() {
		if pg.Tier == mem.SlowTier && moved < 50 {
			if e.TryPromote(pg) == policy.MigrateOK {
				moved++
			}
		}
	}
	for _, pg := range e.Pages() {
		if pg.Tier == mem.FastTier && moved < 80 {
			if e.TryDemote(pg) == policy.MigrateOK {
				moved++
			}
		}
	}
	// Incremental aggregates must match a from-scratch recompute.
	ps := e.byPID[p.PID]
	gotFast := ps.wRead[mem.FastTier] + ps.wWrite[mem.FastTier]
	gotSlow := ps.wRead[mem.SlowTier] + ps.wWrite[mem.SlowTier]
	var wantFast, wantSlow float64
	seen := make(map[int64]bool)
	for _, pg := range e.Pages() {
		if pg == nil || seen[pg.ID] {
			continue
		}
		seen[pg.ID] = true
		w, _ := p.PageWeight(pg)
		if pg.Tier == mem.FastTier {
			wantFast += w
		} else {
			wantSlow += w
		}
	}
	if math.Abs(gotFast-wantFast) > 1e-6 || math.Abs(gotSlow-wantSlow) > 1e-6 {
		t.Fatalf("aggregates drifted: fast %v vs %v, slow %v vs %v",
			gotFast, wantFast, gotSlow, wantSlow)
	}
}

func TestProtectDeliversFault(t *testing.T) {
	e := newTestEngine(5)
	addUniformProc(e, 1, 500, 1)
	e.MapAll(BasePages)
	var faulted []*vm.Page
	pol := &recordingPolicy{onFault: func(pg *vm.Page, now simclock.Time) {
		faulted = append(faulted, pg)
	}}
	e.AttachPolicy(pol)
	pg := e.Pages()[10]
	e.horizon = 10 * simclock.Second
	e.updateRates()
	e.Protect(pg)
	if !pg.Flags.Has(vm.FlagProtNone) {
		t.Fatal("Protect did not set PROT_NONE")
	}
	drainTo(e, 5*simclock.Second)
	if len(faulted) != 1 || faulted[0] != pg {
		t.Fatalf("fault delivery: %v", faulted)
	}
	if pg.Flags.Has(vm.FlagProtNone) {
		t.Fatal("fault did not clear PROT_NONE")
	}
	if pg.LastFault == 0 {
		t.Fatal("LastFault not stamped")
	}
	// CIT bound: with uniform gaps the fault arrives within one access
	// period of the page.
	cit := pg.LastFault - pg.ProtTS
	period := simclock.FromSeconds(1 / e.PageRate(pg))
	if cit < 0 || cit > period+simclock.Millisecond {
		t.Fatalf("CIT %v outside [0, %v]", cit, period)
	}
}

func TestUnprotectCancelsFault(t *testing.T) {
	e := newTestEngine(5)
	addUniformProc(e, 1, 500, 1)
	e.MapAll(BasePages)
	faults := 0
	e.AttachPolicy(&recordingPolicy{onFault: func(*vm.Page, simclock.Time) { faults++ }})
	e.horizon = 10 * simclock.Second
	e.updateRates()
	pg := e.Pages()[0]
	e.Protect(pg)
	e.Unprotect(pg)
	drainTo(e, 9*simclock.Second)
	if faults != 0 {
		t.Fatalf("%d faults after Unprotect", faults)
	}
}

func TestReprotectInvalidatesStaleFault(t *testing.T) {
	e := newTestEngine(5)
	addUniformProc(e, 1, 500, 1)
	e.MapAll(BasePages)
	faults := 0
	e.AttachPolicy(&recordingPolicy{onFault: func(*vm.Page, simclock.Time) { faults++ }})
	e.horizon = 30 * simclock.Second
	e.updateRates()
	pg := e.Pages()[0]
	e.Protect(pg)
	e.Protect(pg) // restamp; old event must not double-deliver
	drainTo(e, 20*simclock.Second)
	if faults != 1 {
		t.Fatalf("faults=%d after re-protect, want exactly 1", faults)
	}
}

func TestZeroWeightPageNeverFaults(t *testing.T) {
	e := newTestEngine(5)
	p := vm.NewProcess(1, "z", 100)
	e.AddProcess(p, 1) // all weights zero
	e.MapAll(BasePages)
	faults := 0
	e.AttachPolicy(&recordingPolicy{onFault: func(*vm.Page, simclock.Time) { faults++ }})
	e.horizon = 10 * simclock.Second
	e.Protect(e.Pages()[0])
	drainTo(e, 9*simclock.Second)
	if faults != 0 {
		t.Fatal("zero-weight page faulted")
	}
}

func TestSplitHuge(t *testing.T) {
	e := newTestEngine(7)
	p := addUniformProc(e, 1, 256, 0.5)
	if err := e.MapAll(HugePages); err != nil {
		t.Fatal(err)
	}
	var huge *vm.Page
	for _, pg := range e.Pages() {
		if pg != nil && pg.IsHuge() {
			huge = pg
			break
		}
	}
	usedBefore := e.Node().Used(huge.Tier)
	wTotBefore := e.byPID[p.PID].wRead[huge.Tier] + e.byPID[p.PID].wWrite[huge.Tier]
	out := e.SplitHuge(huge)
	if len(out) != int(huge.Size) {
		t.Fatalf("split produced %d pages, want %d", len(out), huge.Size)
	}
	if e.Pages()[huge.ID] != nil {
		t.Fatal("huge page still in page table")
	}
	if e.Node().Used(huge.Tier) != usedBefore {
		t.Fatal("split changed capacity accounting")
	}
	wTotAfter := e.byPID[p.PID].wRead[huge.Tier] + e.byPID[p.PID].wWrite[huge.Tier]
	if math.Abs(wTotBefore-wTotAfter) > 1e-9 {
		t.Fatalf("split changed weight mass: %v -> %v", wTotBefore, wTotAfter)
	}
	for i, np := range out {
		if np.Size != 1 || np.VPN != huge.VPN+uint64(i) {
			t.Fatalf("split page %d: size=%d vpn=%d", i, np.Size, np.VPN)
		}
		if p.PageAt(np.VPN) != np {
			t.Fatal("split page not registered")
		}
	}
	if e.SplitHuge(out[0]) != nil {
		t.Fatal("splitting a base page should return nil")
	}
}

func TestMigrationTokenBucket(t *testing.T) {
	e := newTestEngine(9)
	addUniformProc(e, 1, 3000, 1)
	e.MapAll(BasePages)
	e.AttachPolicy(&recordingPolicy{})
	e.Run(simclock.Second)
	// Budget: ~1 second of bucket (MigrationBWBytes) + epoch refills.
	// Promote until the bucket runs dry within one instant.
	promoted := 0
	for _, pg := range e.Pages() {
		if pg.Tier == mem.SlowTier {
			if e.TryPromote(pg) != policy.MigrateOK {
				break
			}
			promoted++
		}
	}
	maxPages := int(5 * float64(migrationBWBytes) / float64(e.node.PageSizeBytes))
	if promoted == 0 {
		t.Fatal("no promotions at all")
	}
	if promoted > maxPages {
		t.Fatalf("promoted %d pages in one instant, bucket should cap at %d", promoted, maxPages)
	}
}

func TestKswapdDemotesBelowWatermark(t *testing.T) {
	e := newTestEngine(11)
	addUniformProc(e, 1, 3000, 1)
	e.MapAll(BasePages)
	e.AttachPolicy(&recordingPolicy{})
	// Drain fast free below the high watermark by raising pro/high via
	// direct allocation.
	free := e.Node().Free(mem.FastTier)
	if free > 0 {
		e.Node().Alloc(mem.FastTier, free)
	}
	if !e.Node().BelowHigh(mem.FastTier) {
		t.Fatal("setup: not below high")
	}
	e.Run(2 * simclock.Second)
	if e.M.Demotions == 0 {
		t.Fatal("kswapd did not demote under watermark pressure")
	}
}

func TestRunAccumulatesMetrics(t *testing.T) {
	e := newTestEngine(13)
	addUniformProc(e, 1, 1000, 0.7)
	e.MapAll(BasePages)
	e.AttachPolicy(&recordingPolicy{})
	m := e.Run(10 * simclock.Second)
	if m.Accesses <= 0 {
		t.Fatal("no accesses recorded")
	}
	if m.Duration != 10*simclock.Second {
		t.Fatalf("Duration=%v", m.Duration)
	}
	if m.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if m.FMAR() <= 0 || m.FMAR() > 1 {
		t.Fatalf("FMAR=%v", m.FMAR())
	}
	if m.Lat.Total() <= 0 {
		t.Fatal("latency histogram empty")
	}
	reads, writes := m.Reads, m.Writes
	ratio := reads / (reads + writes)
	if math.Abs(ratio-0.7) > 0.02 {
		t.Fatalf("read share %v, want ~0.7", ratio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		e := newTestEngine(99)
		addUniformProc(e, 1, 2000, 0.7)
		e.MapAll(BasePages)
		e.AttachPolicy(&recordingPolicy{})
		return e.Run(20 * simclock.Second).Accesses
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestSeedChangesResults(t *testing.T) {
	run := func(seed uint64) float64 {
		e := newTestEngine(seed)
		p := vm.NewProcess(1, "g", 2000)
		start := p.VMAs()[0].Start
		for i := uint64(0); i < 2000; i++ {
			w := 1.0
			if i%7 == 0 {
				w = 50
			}
			p.SetPattern(start+i, w, 0.5)
		}
		e.AddProcess(p, 1)
		e.MapAll(BasePages)
		pol := &promoteOnFault{}
		e.AttachPolicy(pol)
		e.Clock().EveryKey("test/protect", simclock.Second, func(simclock.Time) {
			for _, pg := range e.Pages() {
				if pg.Tier == mem.SlowTier {
					e.Protect(pg)
				}
			}
		})
		return e.Run(30 * simclock.Second).Faults
	}
	if a, b := run(1), run(2); a == b {
		t.Fatalf("different seeds produced identical fault counts %v", a)
	}
}

func TestAccessedTestAndClear(t *testing.T) {
	e := newTestEngine(15)
	p := vm.NewProcess(1, "a", 100)
	start := p.VMAs()[0].Start
	p.SetPattern(start, 1000, 1) // one very hot page
	// page 50 stays zero weight
	e.AddProcess(p, 1)
	e.MapAll(BasePages)
	e.AttachPolicy(&recordingPolicy{})
	e.Run(5 * simclock.Second)
	hot := p.PageAt(start)
	cold := p.PageAt(start + 50)
	// Advance virtual time before testing (bits were cleared at map).
	e.Clock().AtKey(e.Clock().Now()+simclock.Minute, "test/advance", 0, 0, func(simclock.Time) {})
	e.Clock().Run()
	if !e.AccessedTestAndClear(hot) {
		t.Fatal("hot page accessed bit clear")
	}
	if e.AccessedTestAndClear(cold) {
		t.Fatal("zero-weight page accessed bit set")
	}
}

func TestSamplePEBSDistribution(t *testing.T) {
	e := newTestEngine(17)
	p := vm.NewProcess(1, "s", 1000)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 1000; i++ {
		w := 1.0
		if i < 10 {
			w = 1000 // tiny very hot head
		}
		p.SetPattern(start+i, w, 1)
	}
	e.AddProcess(p, 1)
	e.MapAll(BasePages)
	e.AttachPolicy(&recordingPolicy{})
	e.Run(simclock.Second)
	s := pebs.NewSampler(e.RNG(), 10000)
	n := e.SamplePEBS(s, 1.0)
	if n != 10000 {
		t.Fatalf("retained %d samples", n)
	}
	// The 10 hot pages carry ~91% of the rate; their counters should
	// dominate.
	var hotCount uint64
	for i := uint64(0); i < 10; i++ {
		hotCount += uint64(s.Counter(p.PageAt(start + i).ID))
	}
	if frac := float64(hotCount) / 10000; frac < 0.85 {
		t.Fatalf("hot pages drew only %.2f of samples", frac)
	}
}

func TestSysctlNumaTiering(t *testing.T) {
	e := newTestEngine(19)
	v, err := e.Sysctl().Get("kernel/numa_tiering")
	if err != nil || v != "1" {
		t.Fatalf("numa_tiering=%q err=%v", v, err)
	}
	for _, bad := range []string{"7", "-1"} {
		if err := e.Sysctl().Set("kernel/numa_tiering", bad); err == nil {
			t.Fatalf("numa_tiering=%s accepted, want only 0 or 1", bad)
		}
	}
	if v, _ := e.Sysctl().Get("kernel/numa_tiering"); v != "1" {
		t.Fatalf("rejected writes changed numa_tiering to %q", v)
	}
}

func TestDRAMPagePercent(t *testing.T) {
	e := newTestEngine(21)
	p := addUniformProc(e, 1, 2000, 1)
	e.MapAll(BasePages)
	pct := e.DRAMPagePercent(p.PID)
	want := float64(e.ResidentFast(p)) / 2000 * 100
	if math.Abs(pct-want) > 1e-9 {
		t.Fatalf("DRAMPagePercent=%v want %v", pct, want)
	}
	if e.DRAMPagePercent(999) != 0 {
		t.Fatal("unknown PID should report 0")
	}
}

// recordingPolicy is a minimal policy for engine tests.
type recordingPolicy struct {
	policy.Base
	onFault func(pg *vm.Page, now simclock.Time)
}

func (r *recordingPolicy) Name() string                   { return "recorder" }
func (r *recordingPolicy) Attach(policy.Kernel)           {}
func (r *recordingPolicy) CheckpointState() (any, error)  { return nil, nil }
func (r *recordingPolicy) RestoreCheckpoint([]byte) error { return nil }
func (r *recordingPolicy) OnFault(pg *vm.Page, now simclock.Time) {
	if r.onFault != nil {
		r.onFault(pg, now)
	}
}

// promoteOnFault is an MRU mini-policy used for determinism tests.
type promoteOnFault struct {
	policy.Base
	k policy.Kernel
}

func (p *promoteOnFault) Name() string                   { return "mru" }
func (p *promoteOnFault) Attach(k policy.Kernel)         { p.k = k }
func (p *promoteOnFault) CheckpointState() (any, error)  { return nil, nil }
func (p *promoteOnFault) RestoreCheckpoint([]byte) error { return nil }
func (p *promoteOnFault) OnFault(pg *vm.Page, now simclock.Time) {
	if pg.Tier == mem.SlowTier {
		p.k.TryPromote(pg)
	}
}
