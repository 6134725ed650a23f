// Package telescope implements the Telescope baseline (Nair et al.,
// ATC '24): region-based profiling over the tree structure of the page
// tables, designed for TB-scale memory (paper §2.3: "takes advantage of
// the tree-structured PTEs to enable a region-based profiling ... also
// has a fixed profiling window (200ms) that limits its frequency
// resolution at each level of PTE tree").
//
// The profiler maintains a two-level region tree over the address space.
// Each profiling window it test-and-clears the accessed bit of every
// *active* node: an upper-level node whose bit is set "telescopes" —
// descends — into its children for the next window; an idle node's
// subtree collapses back to the parent. Leaf (page-level) nodes that stay
// referenced across consecutive windows accumulate heat and become
// promotion candidates. Profiling cost therefore scales with the accessed
// footprint rather than total memory, but the fixed window caps the
// distinguishable frequency at one access per window per level.
package telescope

import (
	"encoding/json"
	"fmt"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Telescope's fixed profiling parameters.
const (
	// window is the fixed profiling window.
	window = 200 * simclock.Millisecond
	// regionPages is the upper-level region size in pages, one PMD-level
	// entry at the simulator's scale.
	regionPages = 64
	// hotStreak is the number of consecutive referenced windows that
	// make a leaf hot.
	hotStreak = 4
	// migratePeriod is the background migration cycle.
	migratePeriod = 2 * simclock.Second
	// nodeTestNS is the kernel cost per tree-node accessed-bit test.
	nodeTestNS units.NS = 40
)

// region is one upper-level tree node covering a run of page IDs.
type region struct {
	pages []*vm.Page
	// open reports whether the profiler has descended into this region.
	open bool
}

// Policy is the Telescope baseline. Leaf heat lives in pg.Meta (low byte:
// current streak).
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	// batch caps page moves per cycle: 1/32 of the fast tier, at least 16.
	batch int //chrono:rebuilt derived from the machine in Attach
	// profileBudget caps the page-level tests per window: 1/8 of the page
	// table, at least one region. Telescope's efficiency claim rests on
	// access sparsity; on a dense footprint the profiler must round-robin
	// its open regions within a bounded budget or its own cost would
	// exceed the machine.
	profileBudget int //chrono:rebuilt derived from the page table in Attach
	// regions' page runs are rebuilt by Attach; their open flags are
	// state.
	regions []*region //chrono:state Open
	cursor  int       //chrono:state Cursor
	// OpenRegions is exported for tests: the live telescoped set size.
	OpenRegions int //chrono:state OpenRegions
}

// New returns a Telescope policy.
func New() *Policy { return &Policy{} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "Telescope" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	p.batch = max(int(k.Node().Capacity(mem.FastTier)/32), 16)
	p.buildRegions()
	p.profileBudget = max(len(k.Pages())/8, regionPages)
	k.Clock().EveryKey("telescope/profile", window, func(now simclock.Time) { p.profile(now) })
	k.Clock().EveryKey("telescope/migrate", migratePeriod, func(now simclock.Time) { p.migrate() })
}

// checkpointState is Telescope's serializable dynamic state: which
// regions are open (indices in region order), the round-robin cursor and
// the open-set size. Leaf streaks live in pg.Meta, which the engine
// snapshot carries.
type checkpointState struct {
	Open        []int `json:"open,omitempty"`
	Cursor      int   `json:"cursor"`
	OpenRegions int   `json:"open_regions"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	st := checkpointState{Cursor: p.cursor, OpenRegions: p.OpenRegions}
	for i, r := range p.regions {
		if r.open {
			st.Open = append(st.Open, i)
		}
	}
	return st, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	for _, r := range p.regions {
		r.open = false
	}
	for _, i := range st.Open {
		if i < 0 || i >= len(p.regions) {
			return fmt.Errorf("telescope: restore: open region %d of %d", i, len(p.regions))
		}
		p.regions[i].open = true
	}
	p.cursor = st.Cursor
	p.OpenRegions = st.OpenRegions
	return nil
}

// buildRegions groups the resident pages into fixed-size regions in page
// ID order (the tree layout of contiguous PTE ranges).
func (p *Policy) buildRegions() {
	var cur *region
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		if cur == nil || len(cur.pages) >= regionPages {
			cur = &region{}
			p.regions = append(p.regions, cur)
		}
		cur.pages = append(cur.pages, pg)
	}
}

// regionAccessed approximates the PUD/PMD-level accessed bit: set if any
// child page was referenced in the window. The engine's per-page
// test-and-clear answers for one representative page, so the region-level
// view ORs a sample of children (the tree bit is set by any access
// through the entry; sampling keeps the cost model honest while retaining
// the any-child semantics for non-sparse regions).
func (p *Policy) regionAccessed(r *region) bool {
	p.k.ChargeKernel(nodeTestNS.Mul(p.k.CostScale()))
	// Probe up to 8 spread children.
	step := len(r.pages) / 8
	if step < 1 {
		step = 1
	}
	hit := false
	for i := 0; i < len(r.pages); i += step {
		if p.k.AccessedTestAndClear(r.pages[i]) {
			hit = true
		}
	}
	return hit
}

// profile runs one fixed window: closed regions are tested at region
// level and opened when referenced; open regions test their pages
// (round-robin under the profiling budget), accumulating per-page
// streaks, and collapse when idle.
func (p *Policy) profile(now simclock.Time) {
	open := 0
	budget := p.profileBudget
	n := len(p.regions)
	for i := 0; i < n; i++ {
		r := p.regions[(p.cursor+i)%n]
		if !r.open {
			if p.regionAccessed(r) {
				r.open = true
			}
			continue
		}
		open++
		if budget <= 0 {
			continue // deferred to a later window
		}
		budget -= len(r.pages)
		anyHot := false
		for _, pg := range r.pages {
			p.k.ChargeKernel(nodeTestNS.Mul(p.k.CostScale()))
			streak := pg.Meta & 0xff
			if p.k.AccessedTestAndClear(pg) {
				if streak < 255 {
					streak++
				}
				anyHot = true
			} else if streak > 0 {
				streak--
			}
			pg.Meta = (pg.Meta &^ 0xff) | streak
		}
		if !anyHot {
			r.open = false // collapse the idle subtree
			open--
		}
	}
	p.cursor = (p.cursor + 1) % n
	p.OpenRegions = open
}

// migrate promotes leaves with full streaks and demotes streak-0 fast
// pages under pressure.
func (p *Policy) migrate() {
	var hotSlow, coldFast []*vm.Page
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		streak := int(pg.Meta & 0xff)
		switch {
		case pg.Tier == mem.SlowTier && streak >= hotStreak:
			hotSlow = append(hotSlow, pg)
		case pg.Tier == mem.FastTier && streak == 0:
			coldFast = append(coldFast, pg)
		}
	}
	sort.Slice(hotSlow, func(i, j int) bool {
		return hotSlow[i].Meta&0xff > hotSlow[j].Meta&0xff
	})
	_, coldFast, _ = policy.Exchange(p.k, hotSlow, coldFast, p.batch, 1)
	node := p.k.Node()
	for node.BelowHigh(mem.FastTier) && len(coldFast) > 0 {
		p.k.TryDemote(coldFast[0])
		coldFast = coldFast[1:]
	}
}

// OnFault implements policy.Policy. Telescope does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
