package policy

import (
	"fmt"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// The PEBS family's shared timing (HeMem, Memtis and FlexMem use the
// same values; paper §2.3, Table 1).
const (
	// pebsPeriod is the DS-area drain interval: one sampling period.
	pebsPeriod = simclock.Second
	// PEBSCycle is the background classification + migration cycle
	// (Memtis' kmigrated).
	PEBSCycle = 2 * simclock.Second
	// pebsCoolingPeriods is the number of sampling periods between
	// counter halvings.
	pebsCoolingPeriods = 8
	// pebsBins is the counter-histogram depth of the capacity-share
	// classification.
	pebsBins = 16
)

// PEBS is the sampling core of the PEBS family. It owns the sampler, the
// sample-and-cool ticker and the migrate batch; each policy keeps its own
// classification and migration step on top of it.
//
//chrono:statesync PEBSState
type PEBS struct {
	k Kernel //chrono:rebuilt kernel handle, bound by StartPEBS
	// Sampler holds the per-page sample counters.
	Sampler *pebs.Sampler //chrono:state Sampler
	// Batch caps the base pages one migration cycle moves: 1/32 of the
	// fast tier, but at least one huge page or huge-page promotion
	// starves on small tiers.
	Batch   int //chrono:rebuilt derived from the machine by StartPEBS
	periods int //chrono:state Periods

	// The ByProcess grouping: the resident pages by vm.Process.Slot and
	// the processes holding any, by PID. It is rebuilt only when the
	// kernel's page generation or process count has moved since groupGen
	// and groupProcs were taken; grouped is false until the first
	// grouping and after SetState.
	bySlot        [][]*vm.Page  //chrono:rebuilt regrouped from the page table after a restore
	procs         []*vm.Process //chrono:rebuilt regrouped from the page table after a restore
	totalResident int64         //chrono:rebuilt regrouped from the page table after a restore
	groupGen      uint64        //chrono:rebuilt regrouped from the page table after a restore
	groupProcs    int           //chrono:rebuilt regrouped from the page table after a restore
	grouped       bool          //chrono:rebuilt SetState clears it

	// Scratch refilled by every ByProcess pass.
	hist    *pebs.Histogram //chrono:rebuilt fixed-depth threshold scan
	binSize []int64         //chrono:rebuilt per-process bin footprints
}

// PEBSState is the serializable state of a PEBS core. The family's
// checkpoint structs embed it, so its fields lead each policy's JSON.
type PEBSState struct {
	Sampler pebs.SamplerState `json:"sampler"`
	Periods int               `json:"periods"`
}

// StartPEBS builds the sampler from k's policy RNG stream and registers
// the sampling ticker under sampleKey: every pebsPeriod it drains one
// period's samples, and every pebsCoolingPeriods periods it halves the
// counters.
func StartPEBS(k Kernel, sampleKey string) *PEBS {
	// Scale the real 100k/s hardware budget so the expected counter of
	// one simulated *huge* page equals the real per-huge-page counter:
	// rate = 100k × 512 / (HugeFactor × CostScale). This preserves the
	// paper's §2.3 regime at any simulator scale — huge-page counters
	// are large and stable, base-page counters collapse toward zero
	// (Figure 2b), because the base:huge counter ratio is the fold
	// factor in both worlds.
	rate := units.Hz(100000 * 512 / (float64(k.HugeFactor()) * k.CostScale()))
	if rate < 10 {
		rate = 10
	}
	c := &PEBS{
		k:       k,
		Sampler: pebs.NewSampler(k.RNG(), rate),
		Batch:   max(int(k.Node().Capacity(mem.FastTier)/32), k.HugeFactor()),
		hist:    pebs.NewHistogram(pebsBins),
		binSize: make([]int64, pebsBins),
	}
	c.Sampler.Grow(len(k.Pages()))
	k.Clock().EveryKey(sampleKey, pebsPeriod, func(now simclock.Time) {
		k.SamplePEBS(c.Sampler, units.SecondsOf(pebsPeriod))
		c.periods++
		if c.periods%pebsCoolingPeriods == 0 {
			c.Sampler.Cool()
		}
	})
	return c
}

// State captures the core's dynamic state.
func (c *PEBS) State() PEBSState {
	return PEBSState{Sampler: c.Sampler.State(), Periods: c.periods}
}

// SetState overlays captured state. A malformed sampler snapshot, or one
// covering more pages than the restored page table, is an error.
func (c *PEBS) SetState(st PEBSState) error {
	if n := len(c.k.Pages()); st.Sampler.Len > n {
		return fmt.Errorf("policy: restore: %d PEBS counters for %d pages", st.Sampler.Len, n)
	}
	if err := c.Sampler.SetState(st.Sampler); err != nil {
		return err
	}
	c.periods = st.Periods
	c.grouped = false
	return nil
}

// OnPageFreed drops a freed page's counter (splits retire the huge page).
func (c *PEBS) OnPageFreed(pg *vm.Page) { c.Sampler.Clear(pg.ID) }

// ByProcess is the per-process classification pass of Memtis' kmigrated
// and FlexMem's background cycle. It groups the resident pages by
// process and visits each process with its pages and its hot bin: the
// lowest counter bin whose pages, hottest bins first, fit in the
// process's share of the fast tier, proportional to its resident size.
// A pass over an empty page table visits nothing and leaves *cycles
// alone; otherwise it advances *cycles.
//
// The grouping is kept from pass to pass until a page is created or
// freed (the kernel's PageGeneration moves) or a process is added: until
// then a regroup would give the same pages in the same order. A visit
// that splits a page still sees the grouping the pass started with. A
// visit must not reorder or overwrite pages: later passes hand it out
// again.
func (c *PEBS) ByProcess(cycles *int, visit func(proc *vm.Process, pages []*vm.Page, hotBin int)) {
	all := c.k.Processes()
	if gen := c.k.PageGeneration(); !c.grouped || gen != c.groupGen || len(all) != c.groupProcs {
		c.group(all)
		c.grouped, c.groupGen, c.groupProcs = true, gen, len(all)
	}
	if c.totalResident == 0 {
		return
	}
	fastCap := c.k.Node().Capacity(mem.FastTier)
	procs := c.procs
	*cycles++
	start := *cycles % len(procs)

	sizeOf := func(b int) int64 { return c.binSize[b] }
	for i := range procs {
		proc := procs[(start+i)%len(procs)]
		pages := c.bySlot[proc.Slot]
		clear(c.binSize)
		var resident int64
		for _, pg := range pages {
			b := min(pebs.BinOf(c.Sampler.Counter(pg.ID)), pebsBins-1)
			c.binSize[b] += int64(pg.Size)
			resident += int64(pg.Size)
		}
		share := fastCap * resident / c.totalResident
		visit(proc, pages, c.hist.HotThresholdBin(share, sizeOf))
	}
}

// group rebuilds the ByProcess grouping from the page table, refilling
// the previous grouping's slices in place.
func (c *PEBS) group(all []*vm.Process) {
	for len(c.bySlot) < len(all) {
		c.bySlot = append(c.bySlot, nil)
	}
	bySlot := c.bySlot[:len(all)]
	for i := range bySlot {
		bySlot[i] = bySlot[i][:0]
	}
	c.totalResident = 0
	for _, pg := range c.k.Pages() {
		if pg == nil {
			continue
		}
		bySlot[pg.Proc.Slot] = append(bySlot[pg.Proc.Slot], pg)
		c.totalResident += int64(pg.Size)
	}
	// A caller's migration budget is consumed in process order, so the
	// order must be fixed: take the processes with resident pages by
	// PID; ByProcess rotates the starting point each cycle so no process
	// is systematically first in line (kernel cgroup walks resume
	// round-robin the same way; unrotated, the lowest PID would hoard the
	// budget).
	c.procs = c.procs[:0]
	for _, proc := range all {
		if len(bySlot[proc.Slot]) > 0 {
			c.procs = append(c.procs, proc)
		}
	}
	procs := c.procs
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
}
