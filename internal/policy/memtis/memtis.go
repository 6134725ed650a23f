// Package memtis implements the Memtis baseline (Lee et al., SOSP '23):
// PEBS-driven memory tiering with a global histogram of per-page sample
// counters, a hot-set threshold derived from the fast:slow capacity ratio,
// periodic counter cooling, and conservative huge-page splitting.
//
// Memtis is a process-level solution (paper Table 1): each process's
// histogram is classified against its proportional share of the fast
// tier, so it cannot rank hotness *across* processes — the behaviour
// Figure 9 exposes. Its PEBS sample budget is capped (§2.3), which makes
// base-page counters tiny and classification unstable (Figure 2b); the
// same code path runs in both page modes here, and the instability
// emerges from the sampling model rather than from any special-casing.
package memtis

import (
	"cmp"
	"encoding/json"
	"slices"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Config holds Memtis's tunables.
type Config struct {
	// SampleRate is the PEBS budget in samples/second. When zero it
	// defaults to the real 100k/s kernel cap divided by the simulator's
	// capacity scale, preserving the expected per-page counter value.
	SampleRate units.Hz
	// SamplePeriod is the DS-area drain interval (default 1 s).
	SamplePeriod simclock.Duration
	// CoolingPeriods is the number of sample periods between counter
	// cooling events (default 8).
	CoolingPeriods int
	// MigratePeriod is the kmigrated cycle (default 2 s).
	MigratePeriod simclock.Duration
	// MigrateBatch caps page moves per cycle in base pages (default 1/32
	// of the fast tier).
	MigrateBatch int
	// SplitBudget is the max huge-page splits per cycle (default 2 —
	// Memtis's deliberately conservative splitting).
	SplitBudget int
	// NBins is the histogram depth (default 16).
	NBins int
}

func (c Config) withDefaults() Config {
	if c.SamplePeriod == 0 {
		c.SamplePeriod = simclock.Second
	}
	if c.CoolingPeriods == 0 {
		c.CoolingPeriods = 8
	}
	if c.MigratePeriod == 0 {
		c.MigratePeriod = 2 * simclock.Second
	}
	if c.SplitBudget == 0 {
		c.SplitBudget = 2
	}
	if c.NBins == 0 {
		c.NBins = 16
	}
	return c
}

// Policy is the Memtis baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	cfg         Config        //chrono:rebuilt configuration, finalized in Attach
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	sampler     *pebs.Sampler //chrono:state Sampler
	periods     int           //chrono:state Periods
	// cycles counts kmigrated invocations; it rotates the per-process
	// service order so the shared migration budget is shared fairly
	// without depending on map iteration order.
	cycles int //chrono:state Cycles

	// TransientSkips counts hot pages skipped in a kmigrated batch after
	// repeated transient migration aborts (retried next cycle).
	TransientSkips int64 //chrono:state TransientSkips

	// Reused buffers, refilled every kmigrated cycle. byProc groups the
	// resident pages by process; cold holds the current process's cold
	// fast-tier pages in page order, collected once per pass, and
	// byCount is its latest coldest-first copy.
	cold    []coldPage                 //chrono:rebuilt per-pass demotion candidates
	byCount []coldPage                 //chrono:rebuilt per-pass sort scratch
	byProc  map[*vm.Process][]*vm.Page //chrono:rebuilt per-cycle grouping
}

// coldPage is a demotion candidate with the counter it was classified by.
type coldPage struct {
	count uint32
	pg    *vm.Page
}

// coldestFirst orders candidates by counter. slices.SortFunc with it
// permutes a list exactly as sort.Slice with the matching less does:
// both are the stdlib's one generated pdqsort (see TestSortFuncMatchesSortSlice).
func coldestFirst(a, b coldPage) int { return cmp.Compare(a.count, b.count) }

// New returns a Memtis policy.
func New(cfg Config) *Policy { return &Policy{cfg: cfg.withDefaults()} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "Memtis" }

// Sampler exposes the PEBS sampler (for the Figure 2b harness).
func (p *Policy) Sampler() *pebs.Sampler { return p.sampler }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	if p.cfg.MigrateBatch == 0 {
		p.cfg.MigrateBatch = int(k.Node().Capacity(mem.FastTier) / 32)
		// The batch must cover at least one huge page or huge-page
		// promotion starves on small tiers.
		if p.cfg.MigrateBatch < k.HugeFactor() {
			p.cfg.MigrateBatch = k.HugeFactor()
		}
	}
	if p.cfg.SampleRate == 0 {
		// Scale the real 100k/s hardware budget so the expected counter of
		// one simulated *huge* page equals the real per-huge-page counter:
		// rate = 100k × 512 / (HugeFactor × CostScale). This preserves the
		// paper's §2.3 regime at any simulator scale — huge-page counters
		// are large and stable, base-page counters collapse toward zero
		// (Figure 2b), because the base:huge counter ratio is the fold
		// factor in both worlds.
		p.cfg.SampleRate = units.Hz(100000 * 512 / (float64(k.HugeFactor()) * k.CostScale()))
		if p.cfg.SampleRate < 10 {
			p.cfg.SampleRate = 10
		}
	}
	p.sampler = pebs.NewSampler(k.RNG(), p.cfg.SampleRate)
	p.sampler.Grow(len(k.Pages()))
	k.Clock().EveryKey("memtis/sample", p.cfg.SamplePeriod, func(now simclock.Time) {
		k.SamplePEBS(p.sampler, units.SecondsOf(p.cfg.SamplePeriod))
		p.periods++
		if p.periods%p.cfg.CoolingPeriods == 0 {
			p.sampler.Cool()
		}
	})
	k.Clock().EveryKey("memtis/migrate", p.cfg.MigratePeriod, func(now simclock.Time) {
		p.kmigrated()
	})
}

// checkpointState is Memtis's serializable dynamic state.
type checkpointState struct {
	Sampler        pebs.SamplerState `json:"sampler"`
	Periods        int               `json:"periods"`
	Cycles         int               `json:"cycles"`
	TransientSkips int64             `json:"transient_skips"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	return checkpointState{
		Sampler:        p.sampler.State(),
		Periods:        p.periods,
		Cycles:         p.cycles,
		TransientSkips: p.TransientSkips,
	}, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.sampler.SetState(st.Sampler)
	p.periods = st.Periods
	p.cycles = st.Cycles
	p.TransientSkips = st.TransientSkips
	return nil
}

// OnPageFreed implements policy.Policy (splits retire the huge page).
func (p *Policy) OnPageFreed(pg *vm.Page) { p.sampler.Clear(pg.ID) }

// kmigrated is the background classification + migration cycle.
func (p *Policy) kmigrated() {
	// Group resident pages by process, refilling last cycle's slices;
	// a process left without pages is dropped, as a fresh map would
	// not hold it.
	if p.byProc == nil {
		p.byProc = make(map[*vm.Process][]*vm.Page)
	}
	byProc := p.byProc
	//chrono:ordered-irrelevant each slice is truncated on its own
	for proc, pages := range byProc {
		byProc[proc] = pages[:0]
	}
	var totalResident int64
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		byProc[pg.Proc] = append(byProc[pg.Proc], pg)
		totalResident += int64(pg.Size)
	}
	//chrono:ordered-irrelevant each entry is tested on its own
	for proc, pages := range byProc {
		if len(pages) == 0 {
			delete(byProc, proc)
		}
	}
	if totalResident == 0 {
		return
	}
	fastCap := p.k.Node().Capacity(mem.FastTier)
	budget := p.cfg.MigrateBatch

	// The shared migration budget is consumed in process order, so the
	// order must not depend on map iteration: sort by PID, then rotate
	// the starting point each cycle so no process is systematically
	// first in line (kernel cgroup walks resume round-robin the same
	// way; unrotated, the lowest PID would hoard the budget).
	procs := make([]*vm.Process, 0, len(byProc))
	//chrono:ordered-irrelevant keys are sorted immediately below
	for proc := range byProc {
		procs = append(procs, proc)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
	p.cycles++
	start := p.cycles % len(procs)

	for i := range procs {
		proc := procs[(start+i)%len(procs)]
		pages := byProc[proc]
		// Per-process histogram of counter bins weighted by page size.
		hist := pebs.NewHistogram(p.cfg.NBins)
		binSize := make([]int64, p.cfg.NBins)
		var resident int64
		for _, pg := range pages {
			b := pebs.BinOf(p.sampler.Counter(pg.ID))
			if b >= p.cfg.NBins {
				b = p.cfg.NBins - 1
			}
			hist.Add(p.sampler.Counter(pg.ID))
			binSize[b] += int64(pg.Size)
			resident += int64(pg.Size)
		}
		// The process's DRAM entitlement is its proportional share.
		share := fastCap * resident / totalResident
		hotBin := hist.HotThresholdBin(share, func(b int) int64 { return binSize[b] })

		// Promote hot slow-tier pages, hottest first, collecting the cold
		// fast-tier pages they may displace in the same pass. Counters are
		// fixed for the whole pass and only hot pages enter the fast tier,
		// so demoteForSpace need only drop the candidates that left it.
		var hotSlow []*vm.Page
		p.cold, p.byCount = p.cold[:0], p.byCount[:0]
		for _, pg := range pages {
			c := p.sampler.Counter(pg.ID)
			switch {
			case pg.Tier == mem.SlowTier && pebs.BinOf(c) >= hotBin:
				hotSlow = append(hotSlow, pg)
			case pg.Tier == mem.FastTier && pebs.BinOf(c) < hotBin:
				p.cold = append(p.cold, coldPage{c, pg})
			}
		}
		sort.Slice(hotSlow, func(i, j int) bool {
			return p.sampler.Counter(hotSlow[i].ID) > p.sampler.Counter(hotSlow[j].ID)
		})
		for _, pg := range hotSlow {
			if budget < int(pg.Size) {
				break
			}
			p.demoteForSpace(int64(pg.Size))
			switch policy.RetryPromote(p.k, pg, 2) {
			case policy.MigrateOK:
				budget -= int(pg.Size)
			case policy.MigrateTransient:
				// Busy page even after the bounded retry: skip it and
				// keep migrating the rest of the batch; the next
				// kmigrated cycle reclassifies and retries it.
				p.TransientSkips++
			}
		}

		// Conservative splitting of the hottest fast-tier huge pages.
		p.splitHot(pages, hotBin)
	}
}

// demoteForSpace demotes cold fast-tier pages of the process, coldest
// first, when the fast tier lacks headroom for an incoming promotion.
func (p *Policy) demoteForSpace(need int64) {
	node := p.k.Node()
	if node.Free(mem.FastTier) >= node.Watermarks(mem.FastTier).High+need {
		return
	}
	// Drop the candidates that have left the fast tier, keeping page
	// order: the rest is the cold fast-tier set a fresh scan would find.
	p.cold = slices.DeleteFunc(p.cold, func(c coldPage) bool { return c.pg.Tier != mem.FastTier })
	// Sort a copy, so pdqsort orders equal counters for exactly this
	// list. If nothing was dropped since the last sort, byCount already
	// holds that order.
	if len(p.byCount) != len(p.cold) {
		p.byCount = append(p.byCount[:0], p.cold...)
		slices.SortFunc(p.byCount, coldestFirst)
	}
	var freed int64
	for _, c := range p.byCount {
		if freed >= need {
			return
		}
		if policy.RetryDemote(p.k, c.pg, 2) == policy.MigrateOK {
			freed += int64(c.pg.Size)
		}
	}
}

// splitHot splits up to SplitBudget of the process's hottest
// *under-utilized* huge pages — the ones whose PEBS address samples show
// accesses concentrated in a fraction of the region — letting subsequent
// sampling separate their hot and cold base regions.
func (p *Policy) splitHot(pages []*vm.Page, hotBin int) {
	var huge []*vm.Page
	for _, pg := range pages {
		if pg.IsHuge() && pebs.BinOf(p.sampler.Counter(pg.ID)) >= hotBin+2 &&
			p.k.HugeUtilization(pg) < 0.6 {
			huge = append(huge, pg)
		}
	}
	sort.Slice(huge, func(i, j int) bool {
		return p.sampler.Counter(huge[i].ID) > p.sampler.Counter(huge[j].ID)
	})
	for i := 0; i < len(huge) && i < p.cfg.SplitBudget; i++ {
		pg := huge[i]
		// Redistribute the region counter over the fragments so the
		// freshly split pages keep their aggregate hotness estimate
		// until per-fragment samples accumulate.
		per := p.sampler.Counter(pg.ID) / uint32(pg.Size)
		for _, np := range p.k.SplitHuge(pg) {
			if per > 0 {
				p.sampler.Grow(int(np.ID) + 1)
				p.sampler.AddDirect(np.ID, per)
			}
		}
	}
}

// OnFault implements policy.Policy. Memtis does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
