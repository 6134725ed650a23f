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
	"math"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// timelySlack relaxes the fault-path threshold: a faulting page in bin
// >= hotBin-timelySlack promotes immediately.
const timelySlack = 1

// Policy is the FlexMem baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	core        *policy.PEBS  //chrono:state PEBSState
	scan        *scan.Set     //chrono:state Scan
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

	// Reused buffers, refilled for every process of a background cycle.
	hotSlow  []*vm.Page //chrono:rebuilt per-pass promotion candidates
	coldFast []*vm.Page //chrono:rebuilt per-pass demotion candidates
}

// New returns a FlexMem policy.
func New() *Policy { return &Policy{hotBin: make(map[*vm.Process]int)} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "FlexMem" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	p.core = policy.StartPEBS(k, "flexmem/sample")
	// Background classification + migration.
	k.Clock().EveryKey("flexmem/background", policy.PEBSCycle, func(now simclock.Time) {
		p.background()
	})
	// Fault channel: poison slow-tier pages for timely decisions.
	p.scan = scan.Start(k, scan.Config{}, func(pg *vm.Page, now simclock.Time) {
		if pg.Tier == mem.SlowTier {
			k.Protect(pg)
		}
	})
}

// checkpointState is FlexMem's serializable dynamic state. The hotBin
// map serializes as (PID, bin) pairs sorted by PID so identical state
// always produces identical bytes.
type checkpointState struct {
	policy.PEBSState
	Cycles           int           `json:"cycles"`
	HotPIDs          []int         `json:"hot_pids,omitempty"`
	HotBins          []int         `json:"hot_bins,omitempty"`
	TimelyPromotions int64         `json:"timely_promotions"`
	TransientSkips   int64         `json:"transient_skips"`
	Scan             scan.SetState `json:"scan"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	st := checkpointState{
		PEBSState:        p.core.State(),
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
	if st.Cycles < 0 || st.Cycles == math.MaxInt {
		// ByProcess increments cycles, then indexes by it modulo the
		// process count: it must stay non-negative.
		return fmt.Errorf("flexmem: restore: cycle count %d out of range", st.Cycles)
	}
	if err := p.core.SetState(st.PEBSState); err != nil {
		return fmt.Errorf("flexmem: %w", err)
	}
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
func (p *Policy) OnPageFreed(pg *vm.Page) { p.core.OnPageFreed(pg) }

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
	bin := pebs.BinOf(p.core.Sampler.Counter(pg.ID))
	if bin >= hot-timelySlack && bin >= 1 {
		if policy.RetryPromote(p.k, pg, 2) == policy.MigrateOK {
			p.TimelyPromotions++
		}
	}
}

// background recomputes per-process thresholds and migrates like
// Memtis's kmigrated.
func (p *Policy) background() {
	budget := p.core.Batch
	sampler := p.core.Sampler
	p.core.ByProcess(&p.cycles, func(proc *vm.Process, pages []*vm.Page, hotBin int) {
		p.hotBin[proc] = hotBin
		hotSlow, coldFast := p.hotSlow[:0], p.coldFast[:0]
		for _, pg := range pages {
			b := pebs.BinOf(sampler.Counter(pg.ID))
			switch {
			case pg.Tier == mem.SlowTier && b >= hotBin:
				hotSlow = append(hotSlow, pg)
			case pg.Tier == mem.FastTier && b < hotBin:
				coldFast = append(coldFast, pg)
			}
		}
		p.hotSlow, p.coldFast = hotSlow, coldFast
		sort.Slice(hotSlow, func(i, j int) bool {
			return sampler.Counter(hotSlow[i].ID) > sampler.Counter(hotSlow[j].ID)
		})
		sort.Slice(coldFast, func(i, j int) bool {
			return sampler.Counter(coldFast[i].ID) < sampler.Counter(coldFast[j].ID)
		})
		// Hot pages skipped on a transient failure are retried by the
		// next background cycle, which reclassifies them.
		var skips int
		budget, _, skips = policy.Exchange(p.k, hotSlow, coldFast, budget, 2)
		p.TransientSkips += int64(skips)
	})
}
