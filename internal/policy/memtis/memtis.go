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
	"fmt"
	"math"
	"slices"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// splitBudget is the most huge pages one kmigrated cycle splits —
// Memtis's deliberately conservative splitting.
const splitBudget = 2

// Policy is the Memtis baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	core        *policy.PEBS  //chrono:state PEBSState
	// cycles counts kmigrated invocations; it rotates the per-process
	// service order so the shared migration budget is shared fairly
	// without depending on map iteration order.
	cycles int //chrono:state Cycles

	// TransientSkips counts hot pages skipped in a kmigrated batch after
	// repeated transient migration aborts (retried next cycle).
	TransientSkips int64 //chrono:state TransientSkips

	// Reused buffers, refilled for every process of a kmigrated cycle:
	// cold holds the process's cold fast-tier pages in page-ID order,
	// collected once per pass; the pass's candidates are cold[front:].
	// inOrder records that their counters are non-decreasing in page
	// order, so cold[front:] is itself the coldest-first order; otherwise
	// byCount is its latest coldest-first copy. While a pass is open,
	// departed collects the IDs of pages that left the fast tier since
	// the candidates were last pruned.
	cold     []coldPage //chrono:rebuilt per-pass demotion candidates
	front    int        //chrono:rebuilt per-pass count of candidates dropped from the front of cold
	inOrder  bool       //chrono:rebuilt per-pass: cold's counters are non-decreasing
	byCount  []coldPage //chrono:rebuilt per-pass sort scratch
	departed []int64    //chrono:rebuilt per-pass departures, drained by demoteForSpace
	passOpen bool       //chrono:rebuilt true only inside a kmigrated process pass
	hotSlow  []*vm.Page //chrono:rebuilt per-pass promotion candidates
	huge     []*vm.Page //chrono:rebuilt per-pass split candidates
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

// byID locates a page ID in a candidate list kept in page-ID order.
func byID(c coldPage, id int64) int { return cmp.Compare(c.pg.ID, id) }

// New returns a Memtis policy.
func New() *Policy { return &Policy{} }

// Name implements policy.Policy.
func (p *Policy) Name() string { return "Memtis" }

// Sampler exposes the PEBS sampler (for the Figure 2b harness).
func (p *Policy) Sampler() *pebs.Sampler { return p.core.Sampler }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	p.core = policy.StartPEBS(k, "memtis/sample")
	k.Clock().EveryKey("memtis/migrate", policy.PEBSCycle, func(now simclock.Time) {
		p.kmigrated()
	})
}

// checkpointState is Memtis's serializable dynamic state.
type checkpointState struct {
	policy.PEBSState
	Cycles         int   `json:"cycles"`
	TransientSkips int64 `json:"transient_skips"`
}

// CheckpointState implements policy.Policy.
func (p *Policy) CheckpointState() (any, error) {
	return checkpointState{
		PEBSState:      p.core.State(),
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
	if st.Cycles < 0 || st.Cycles == math.MaxInt {
		// ByProcess increments cycles, then indexes by it modulo the
		// process count: it must stay non-negative.
		return fmt.Errorf("memtis: restore: cycle count %d out of range", st.Cycles)
	}
	if err := p.core.SetState(st.PEBSState); err != nil {
		return fmt.Errorf("memtis: %w", err)
	}
	p.cycles = st.Cycles
	p.TransientSkips = st.TransientSkips
	return nil
}

// OnPageFreed implements policy.Policy (splits retire the huge page).
func (p *Policy) OnPageFreed(pg *vm.Page) { p.core.OnPageFreed(pg) }

// kmigrated is the background classification + migration cycle: each
// process's pages are classified against its capacity share, then its hot
// slow-tier pages are promoted under the cycle's shared budget.
func (p *Policy) kmigrated() {
	budget := p.core.Batch
	sampler := p.core.Sampler
	p.core.ByProcess(&p.cycles, func(proc *vm.Process, pages []*vm.Page, hotBin int) {
		// Promote hot slow-tier pages, hottest first, collecting the cold
		// fast-tier pages they may displace in the same pass. Counters are
		// fixed for the whole pass and only hot pages enter the fast tier,
		// so demoteForSpace need only drop the candidates that left it.
		hotSlow := p.hotSlow[:0]
		p.cold, p.front, p.inOrder = p.cold[:0], 0, true
		p.byCount, p.departed = p.byCount[:0], p.departed[:0]
		for _, pg := range pages {
			c := sampler.Counter(pg.ID)
			switch {
			case pg.Tier == mem.SlowTier && pebs.BinOf(c) >= hotBin:
				hotSlow = append(hotSlow, pg)
			case pg.Tier == mem.FastTier && pebs.BinOf(c) < hotBin:
				if n := len(p.cold); n > 0 && p.cold[n-1].count > c {
					p.inOrder = false
				}
				p.cold = append(p.cold, coldPage{c, pg})
			}
		}
		p.hotSlow = hotSlow
		sort.Slice(hotSlow, func(i, j int) bool {
			return sampler.Counter(hotSlow[i].ID) > sampler.Counter(hotSlow[j].ID)
		})
		p.passOpen = true
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
		p.passOpen = false

		// Conservative splitting of the hottest fast-tier huge pages.
		p.splitHot(pages, hotBin)
	})
}

// OnMigrated implements policy.Policy: it records the pages that leave
// the fast tier during a pass, for demoteForSpace to drop from cold.
func (p *Policy) OnMigrated(pg *vm.Page, from, to mem.TierID) {
	if p.passOpen && from == mem.FastTier {
		p.departed = append(p.departed, pg.ID)
	}
}

// demoteForSpace demotes cold fast-tier pages of the process, coldest
// first, when the fast tier lacks headroom for an incoming promotion.
//
// Once the kernel reports migrations dry, every demotion attempt is a
// no-op until the next epoch, so the walk stops there: the run is the
// same as if it had tried every remaining candidate.
func (p *Policy) demoteForSpace(need int64) {
	node := p.k.Node()
	if node.Free(mem.FastTier) >= node.Watermarks(mem.FastTier).High+need {
		return
	}
	if p.k.MigrationsDry() {
		return
	}
	// Drop the candidates that have left the fast tier, keeping page
	// order: the rest is the cold fast-tier set a fresh scan would find.
	// Within a pass a fast page leaves only through a migration, which
	// OnMigrated records, and no cold page re-enters the fast tier. The
	// usual departure is the candidate the last walk demoted first, at
	// the front, which costs nothing to drop.
	for _, id := range p.departed {
		if i, ok := slices.BinarySearchFunc(p.cold[p.front:], id, byID); ok {
			if i == 0 {
				p.front++
			} else {
				p.cold = slices.Delete(p.cold, p.front+i, p.front+i+1)
			}
		}
	}
	p.departed = p.departed[:0]
	var freed int64
	for _, c := range p.walkOrder() {
		if freed >= need {
			return
		}
		switch policy.RetryDemote(p.k, c.pg, 2) {
		case policy.MigrateOK:
			freed += int64(c.pg.Size)
		case policy.MigrateThrottled:
			if p.k.MigrationsDry() {
				return
			}
		}
	}
}

// walkOrder returns the pass's candidates coldest first, in the order
// slices.SortFunc with coldestFirst gives them. A list whose counters are
// non-decreasing is already in that order, ties included: pdqsort leaves
// it as it is (TestSortFuncKeepsNonDecreasing; DESIGN.md has the proof).
// Any other list is sorted as a copy, so pdqsort orders equal counters
// for exactly this list; if nothing was dropped since the last sort,
// byCount already holds that order.
func (p *Policy) walkOrder() []coldPage {
	live := p.cold[p.front:]
	if p.inOrder {
		return live
	}
	if len(p.byCount) != len(live) {
		p.byCount = append(p.byCount[:0], live...)
		slices.SortFunc(p.byCount, coldestFirst)
	}
	return p.byCount
}

// splitHot splits up to splitBudget of the process's hottest
// *under-utilized* huge pages — the ones whose PEBS address samples show
// accesses concentrated in a fraction of the region — letting subsequent
// sampling separate their hot and cold base regions.
func (p *Policy) splitHot(pages []*vm.Page, hotBin int) {
	sampler := p.core.Sampler
	huge := p.huge[:0]
	for _, pg := range pages {
		if pg.IsHuge() && pebs.BinOf(sampler.Counter(pg.ID)) >= hotBin+2 &&
			p.k.HugeUtilization(pg) < 0.6 {
			huge = append(huge, pg)
		}
	}
	p.huge = huge
	sort.Slice(huge, func(i, j int) bool {
		return sampler.Counter(huge[i].ID) > sampler.Counter(huge[j].ID)
	})
	for i := 0; i < len(huge) && i < splitBudget; i++ {
		pg := huge[i]
		// Redistribute the region counter over the fragments so the
		// freshly split pages keep their aggregate hotness estimate
		// until per-fragment samples accumulate.
		per := sampler.Counter(pg.ID) / uint32(pg.Size)
		for _, np := range p.k.SplitHuge(pg) {
			if per > 0 {
				sampler.Grow(int(np.ID) + 1)
				sampler.AddDirect(np.ID, per)
			}
		}
	}
}

// OnFault implements policy.Policy. Memtis does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
