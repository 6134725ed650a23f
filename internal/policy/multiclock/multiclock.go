// Package multiclock implements the Multi-Clock baseline (Maruf et al.,
// HPCA '22): dynamic tiering built on the hardware accessed bit and
// multi-level CLOCK/LRU lists, with no forced page faults — which is why
// the paper measures it with the lowest context-switch rate (§5.1.2).
//
// Each tier keeps N ordered CLOCK lists. A periodic scan test-and-clears
// the accessed bit of a batch of pages per list: referenced pages climb
// one level, unreferenced pages descend. Promotion candidates are drawn
// from the top list of the slow tier, demotion candidates from the bottom
// list of the fast tier. Because the accessed bit only says "accessed or
// not" per scan window, the effective frequency scale is 0–1 access per
// window (§2.3, Table 1).
package multiclock

import (
	"encoding/json"
	"fmt"

	"chrono/internal/lru"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

const (
	// levels is the number of CLOCK lists per tier.
	levels = 4
	// scanPeriod is the interval between CLOCK passes, the reset
	// interval of the accessed bits.
	scanPeriod = 10 * simclock.Second
)

// Policy is the Multi-Clock baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base                               //chrono:rebuilt stateless method set
	k           policy.Kernel                 //chrono:rebuilt kernel handle, re-bound by Attach
	clocks      [mem.NumTiers]*lru.MultiClock //chrono:state Clocks
	// scanBatch is the pages examined per list per pass: half of the
	// page table, at least 64. That lets a continuously referenced page
	// climb to the top level within a few scan periods, matching the
	// CLOCK hand rates of the original system.
	scanBatch int //chrono:rebuilt derived from the page table in Attach
	// batch caps promotions/demotions per pass: 1/64 of the fast tier,
	// at least 16.
	batch int //chrono:rebuilt derived from the machine in Attach
}

// New returns a Multi-Clock policy.
func New() *Policy { return &Policy{} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "Multi-Clock" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	n := len(k.Pages())
	p.scanBatch = max(n/2, 64)
	p.batch = max(int(k.Node().Capacity(mem.FastTier)/64), 16)
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		p.clocks[t] = lru.NewMultiClock(levels, n)
	}
	for _, pg := range k.Pages() {
		if pg != nil {
			p.clocks[pg.Tier].Add(pg.ID, 0)
		}
	}
	k.Clock().EveryKey("multiclock/pass", scanPeriod, func(now simclock.Time) { p.pass() })
}

// checkpointState is Multi-Clock's serializable dynamic state: each
// tier's CLOCK level lists in member order. The accessed bits they are
// driven by live in the engine's page table.
type checkpointState struct {
	Clocks [mem.NumTiers]lru.MultiClockState `json:"clocks"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	var st checkpointState
	for t, c := range p.clocks {
		st.Clocks[t] = c.State()
	}
	return st, nil
}

// RestoreCheckpoint implements policy.Policy.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	for t, c := range p.clocks {
		if err := c.SetState(st.Clocks[t]); err != nil {
			return fmt.Errorf("multiclock: tier %d: %w", t, err)
		}
	}
	return nil
}

// OnPageMapped implements policy.Policy.
func (p *Policy) OnPageMapped(pg *vm.Page) {
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		p.clocks[t].Grow(int(pg.ID) + 1)
	}
	p.clocks[pg.Tier].Add(pg.ID, 0)
}

// OnPageFreed implements policy.Policy.
func (p *Policy) OnPageFreed(pg *vm.Page) {
	p.clocks[pg.Tier].Drop(pg.ID)
}

// LevelSizes reports the per-level population of one tier's clock (for
// tests and diagnostics).
func (p *Policy) LevelSizes(t mem.TierID) []int {
	var out []int
	for _, l := range p.clocks[t].Levels {
		out = append(out, l.Len())
	}
	return out
}

// pass runs one CLOCK scan on both tiers and migrates from the extreme
// lists.
func (p *Policy) pass() {
	pages := p.k.Pages()
	accessed := func(id int64) bool {
		pg := pages[id]
		if pg == nil {
			return false
		}
		return p.k.AccessedTestAndClear(pg)
	}
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		p.clocks[t].Scan(p.scanBatch, accessed)
	}

	// Promote from the slow tier's top (highest non-empty) level: the
	// pages with the longest run of referenced scans. Climbing requires
	// at least one referenced scan, so level-0 residents never qualify.
	budget := p.batch
	for _, id := range p.clocks[mem.SlowTier].Top(budget) {
		pg := pages[id]
		if pg == nil || pg.Tier != mem.SlowTier {
			continue
		}
		if p.clocks[mem.SlowTier].Level(id) < 1 {
			continue
		}
		if p.fastPressure() {
			p.demoteSome(1)
		}
		// OnMigrated moves the page between the per-tier clocks.
		p.k.TryPromote(pg)
	}

	// Demote under watermark pressure from the fast tier's bottom level.
	if p.fastPressure() {
		p.demoteSome(p.batch)
	}
}

func (p *Policy) fastPressure() bool {
	node := p.k.Node()
	return node.Free(mem.FastTier) < node.Watermarks(mem.FastTier).High
}

func (p *Policy) demoteSome(n int) {
	pages := p.k.Pages()
	for _, id := range p.clocks[mem.FastTier].Bottom(n) {
		pg := pages[id]
		if pg == nil || pg.Tier != mem.FastTier {
			continue
		}
		p.k.TryDemote(pg) // OnMigrated syncs the clocks
	}
}

// OnMigrated implements policy.Policy: keep the per-tier clocks in sync
// with every tier move, including kernel-initiated demotions. Promoted
// pages enter the fast clock at the top level; demoted pages enter the
// slow clock at the bottom.
func (p *Policy) OnMigrated(pg *vm.Page, from, to mem.TierID) {
	p.clocks[from].Drop(pg.ID)
	p.clocks[to].Drop(pg.ID)
	if to == mem.FastTier {
		p.clocks[to].Add(pg.ID, levels-1)
	} else {
		p.clocks[to].Add(pg.ID, 0)
	}
}

// OnFault implements policy.Policy. Multi-Clock never poisons pages, so no
// hint faults arrive.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
