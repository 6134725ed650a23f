// Package hemem implements the HeMem baseline (Raybuck et al., SOSP '21):
// PEBS-driven tiering with *fixed* classification thresholds, the design
// the paper contrasts with Memtis's histogram and Chrono's dynamic CIT
// statistics (§2.3: "HeMem utilizes PEBS counters to represent the memory
// access frequency and classify hot and cold pages based on fixed
// thresholds").
//
// A page whose sample counter reaches the hot threshold is promoted;
// fast-tier pages whose counter stays at or below the cold threshold are
// demotion candidates under watermark pressure. Counters cool periodically. Because the
// thresholds never adapt, the classification quality depends entirely on
// how well the constants happen to match the workload — HeMem's known
// limitation.
package hemem

import (
	"encoding/json"
	"fmt"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// HeMem's fixed thresholds, in PEBS samples per page.
const (
	// hotThreshold is the count at which a page is hot. HeMem's default
	// is in the 2^5..2^15 band the paper cites; 8 at the simulator's
	// scaled budget.
	hotThreshold uint32 = 8
	// coldThreshold is the count at or below which a fast page is a
	// demotion candidate.
	coldThreshold uint32 = 1
)

// Policy is the HeMem baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	core        *policy.PEBS  //chrono:state PEBSState
	hot         uint32        //chrono:rebuilt hotThreshold, set by New
}

// New returns a HeMem policy.
func New() *Policy { return &Policy{hot: hotThreshold} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "HeMem" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	p.core = policy.StartPEBS(k, "hemem/sample")
	k.Clock().EveryKey("hemem/migrate", policy.PEBSCycle, func(now simclock.Time) {
		p.migrate()
	})
}

// checkpointState is HeMem's serializable dynamic state: the PEBS
// counters and the sample-period count that paces cooling.
type checkpointState struct {
	policy.PEBSState
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	return checkpointState{p.core.State()}, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if err := p.core.SetState(st.PEBSState); err != nil {
		return fmt.Errorf("hemem: %w", err)
	}
	return nil
}

// OnPageFreed implements policy.Policy.
func (p *Policy) OnPageFreed(pg *vm.Page) { p.core.OnPageFreed(pg) }

// migrate applies the fixed-threshold classification.
func (p *Policy) migrate() {
	sampler := p.core.Sampler
	var hotSlow, coldFast []*vm.Page
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		c := sampler.Counter(pg.ID)
		switch {
		case pg.Tier == mem.SlowTier && c >= p.hot:
			hotSlow = append(hotSlow, pg)
		case pg.Tier == mem.FastTier && c <= coldThreshold:
			coldFast = append(coldFast, pg)
		}
	}
	sort.Slice(hotSlow, func(i, j int) bool {
		return sampler.Counter(hotSlow[i].ID) > sampler.Counter(hotSlow[j].ID)
	})
	sort.Slice(coldFast, func(i, j int) bool {
		return sampler.Counter(coldFast[i].ID) < sampler.Counter(coldFast[j].ID)
	})

	_, coldFast, _ = policy.Exchange(p.k, hotSlow, coldFast, p.core.Batch, 1)
	// Watermark maintenance: drain remaining cold pages under pressure.
	node := p.k.Node()
	for node.BelowHigh(mem.FastTier) && len(coldFast) > 0 {
		p.k.TryDemote(coldFast[0])
		coldFast = coldFast[1:]
	}
}

// OnFault implements policy.Policy. HeMem does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
