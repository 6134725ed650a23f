// Package flexmem implements the FlexMem baseline (Xu et al., ATC '24):
// Memtis-style PEBS histogram classification combined with the software
// page-fault channel for *timely* migration decisions (paper §2.3:
// "FlexMem integrates the PEBS-based method with the software page fault
// method to provide a synthetic classification criterion, which enhances
// Memtis with timely migration decisions").
//
// The PEBS side builds per-process counter histograms and a capacity-
// derived hot threshold exactly like Memtis; the fault side poisons
// slow-tier pages NUMA-balancing style, and a hint fault on a page whose
// counter already clears (a relaxed version of) the hot threshold
// promotes it immediately instead of waiting for the next background
// cycle.
package flexmem

import (
	"encoding/json"
	"fmt"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Config holds FlexMem's tunables.
type Config struct {
	Scan scan.Config
	// SampleRate is the PEBS budget (0 = scale-derived default).
	SampleRate units.Hz
	// SamplePeriod is the DS-area drain interval (default 1 s).
	SamplePeriod simclock.Duration
	// CoolingPeriods between counter halvings (default 8).
	CoolingPeriods int
	// MigratePeriod is the background cycle (default 2 s).
	MigratePeriod simclock.Duration
	// MigrateBatch caps background moves per cycle (default fast/32).
	MigrateBatch int
	// NBins is the histogram depth (default 16).
	NBins int
	// TimelySlack relaxes the fault-path threshold: a faulting page in
	// bin >= hotBin-TimelySlack promotes immediately (default 1).
	TimelySlack int
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
	if c.NBins == 0 {
		c.NBins = 16
	}
	if c.TimelySlack == 0 {
		c.TimelySlack = 1
	}
	return c
}

// Policy is the FlexMem baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	cfg         Config        //chrono:rebuilt configuration, finalized in Attach
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	sampler     *pebs.Sampler //chrono:state Sampler
	scan        *scan.Set     //chrono:state Scan
	periods     int           //chrono:state Periods
	// hotBin is the live capacity-derived threshold bin per process.
	hotBin map[*vm.Process]int //chrono:state HotPIDs,HotBins
	// cycles counts background invocations; it rotates the per-process
	// service order so the shared migration budget is shared fairly
	// without depending on map iteration order.
	cycles int //chrono:state Cycles
	// TimelyPromotions counts fault-path promotions (vs background).
	TimelyPromotions int64 //chrono:state TimelyPromotions
	// TransientSkips counts hot pages skipped in a background batch
	// after repeated transient migration aborts (retried next cycle).
	TransientSkips int64 //chrono:state TransientSkips
}

// New returns a FlexMem policy.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg.withDefaults(), hotBin: make(map[*vm.Process]int)}
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return "FlexMem" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	if p.cfg.SampleRate == 0 {
		p.cfg.SampleRate = units.Hz(100000 * 512 / (float64(k.HugeFactor()) * k.CostScale()))
		if p.cfg.SampleRate < 10 {
			p.cfg.SampleRate = 10
		}
	}
	if p.cfg.MigrateBatch == 0 {
		p.cfg.MigrateBatch = int(k.Node().Capacity(mem.FastTier) / 32)
		if p.cfg.MigrateBatch < k.HugeFactor() {
			p.cfg.MigrateBatch = k.HugeFactor()
		}
	}
	p.sampler = pebs.NewSampler(k.RNG(), p.cfg.SampleRate)
	p.sampler.Grow(len(k.Pages()))

	// PEBS sampling + cooling.
	k.Clock().EveryKey("flexmem/sample", p.cfg.SamplePeriod, func(now simclock.Time) {
		k.SamplePEBS(p.sampler, units.SecondsOf(p.cfg.SamplePeriod))
		p.periods++
		if p.periods%p.cfg.CoolingPeriods == 0 {
			p.sampler.Cool()
		}
	})
	// Background classification + migration.
	k.Clock().EveryKey("flexmem/background", p.cfg.MigratePeriod, func(now simclock.Time) {
		p.background()
	})
	// Fault channel: poison slow-tier pages for timely decisions.
	p.scan = scan.Start(k, p.cfg.Scan, func(pg *vm.Page, now simclock.Time) {
		if pg.Tier == mem.SlowTier {
			k.Protect(pg)
		}
	})
}

// checkpointState is FlexMem's serializable dynamic state. The hotBin
// map serializes as (PID, bin) pairs sorted by PID so identical state
// always produces identical bytes.
type checkpointState struct {
	Sampler          pebs.SamplerState `json:"sampler"`
	Periods          int               `json:"periods"`
	Cycles           int               `json:"cycles"`
	HotPIDs          []int             `json:"hot_pids,omitempty"`
	HotBins          []int             `json:"hot_bins,omitempty"`
	TimelyPromotions int64             `json:"timely_promotions"`
	TransientSkips   int64             `json:"transient_skips"`
	Scan             scan.SetState     `json:"scan"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	st := checkpointState{
		Sampler:          p.sampler.State(),
		Periods:          p.periods,
		Cycles:           p.cycles,
		TimelyPromotions: p.TimelyPromotions,
		TransientSkips:   p.TransientSkips,
		Scan:             p.scan.State(),
	}
	//chrono:ordered-irrelevant keys are sorted immediately below
	for proc := range p.hotBin {
		st.HotPIDs = append(st.HotPIDs, proc.PID)
	}
	sort.Ints(st.HotPIDs)
	for _, pid := range st.HotPIDs {
		st.HotBins = append(st.HotBins, p.hotBin[p.procByPID(pid)])
	}
	return st, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.HotPIDs) != len(st.HotBins) {
		return fmt.Errorf("flexmem: restore: %d hot PIDs, %d bins", len(st.HotPIDs), len(st.HotBins))
	}
	p.sampler.SetState(st.Sampler)
	p.periods = st.Periods
	p.cycles = st.Cycles
	p.TimelyPromotions = st.TimelyPromotions
	p.TransientSkips = st.TransientSkips
	p.hotBin = make(map[*vm.Process]int, len(st.HotPIDs))
	for i, pid := range st.HotPIDs {
		proc := p.procByPID(pid)
		if proc == nil {
			return fmt.Errorf("flexmem: restore: no process with PID %d", pid)
		}
		p.hotBin[proc] = st.HotBins[i]
	}
	return p.scan.SetState(st.Scan)
}

// procByPID resolves a PID against the kernel's process list.
func (p *Policy) procByPID(pid int) *vm.Process {
	for _, proc := range p.k.Processes() {
		if proc.PID == pid {
			return proc
		}
	}
	return nil
}

// OnPageFreed implements policy.Policy.
func (p *Policy) OnPageFreed(pg *vm.Page) { p.sampler.Clear(pg.ID) }

// OnFault implements policy.Policy: the timely path — a faulting page
// whose sampled hotness is already near the threshold promotes now.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {
	if pg.Tier != mem.SlowTier {
		return
	}
	hot, ok := p.hotBin[pg.Proc]
	if !ok {
		return // no classification yet; wait for the background cycle
	}
	bin := pebs.BinOf(p.sampler.Counter(pg.ID))
	if bin >= hot-p.cfg.TimelySlack && bin >= 1 {
		if policy.RetryPromote(p.k, pg, 2) == policy.MigrateOK {
			p.TimelyPromotions++
		}
	}
}

// background recomputes per-process histograms/thresholds and migrates
// like Memtis's kmigrated.
func (p *Policy) background() {
	byProc := make(map[*vm.Process][]*vm.Page)
	var totalResident int64
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		byProc[pg.Proc] = append(byProc[pg.Proc], pg)
		totalResident += int64(pg.Size)
	}
	if totalResident == 0 {
		return
	}
	fastCap := p.k.Node().Capacity(mem.FastTier)
	budget := p.cfg.MigrateBatch

	// The shared migration budget is consumed in process order, so the
	// order must not depend on map iteration: take the processes with
	// resident pages by PID, then rotate the starting point each cycle
	// so no process is systematically first in line.
	procs := make([]*vm.Process, 0, len(byProc))
	for _, proc := range p.k.Processes() {
		if len(byProc[proc]) > 0 {
			procs = append(procs, proc)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
	p.cycles++
	start := p.cycles % len(procs)

	for i := range procs {
		proc := procs[(start+i)%len(procs)]
		pages := byProc[proc]
		hist := pebs.NewHistogram(p.cfg.NBins)
		binSize := make([]int64, p.cfg.NBins)
		var resident int64
		for _, pg := range pages {
			c := p.sampler.Counter(pg.ID)
			b := pebs.BinOf(c)
			if b >= p.cfg.NBins {
				b = p.cfg.NBins - 1
			}
			hist.Add(c)
			binSize[b] += int64(pg.Size)
			resident += int64(pg.Size)
		}
		share := fastCap * resident / totalResident
		hotBin := hist.HotThresholdBin(share, func(b int) int64 { return binSize[b] })
		p.hotBin[proc] = hotBin

		var hotSlow, coldFast []*vm.Page
		for _, pg := range pages {
			b := pebs.BinOf(p.sampler.Counter(pg.ID))
			switch {
			case pg.Tier == mem.SlowTier && b >= hotBin:
				hotSlow = append(hotSlow, pg)
			case pg.Tier == mem.FastTier && b < hotBin:
				coldFast = append(coldFast, pg)
			}
		}
		sort.Slice(hotSlow, func(i, j int) bool {
			return p.sampler.Counter(hotSlow[i].ID) > p.sampler.Counter(hotSlow[j].ID)
		})
		sort.Slice(coldFast, func(i, j int) bool {
			return p.sampler.Counter(coldFast[i].ID) < p.sampler.Counter(coldFast[j].ID)
		})
		// Hot pages skipped on a transient failure are retried by the
		// next background cycle, which reclassifies them.
		var skips int
		budget, _, skips = policy.Exchange(p.k, hotSlow, coldFast, budget, 2)
		p.TransientSkips += int64(skips)
	}
}
