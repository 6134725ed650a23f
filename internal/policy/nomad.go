package policy

// Nomad baseline (Xiang et al., OSDI '23): non-exclusive memory tiering
// with transactional page migration. Two ideas distinguish it from the
// copy-and-free baselines:
//
//   - Transactional promotion: the slow-tier copy of a promoted page is
//     retained as a shadow, so demoting the page later — as long as no
//     write dirtied it — is a zero-copy remap instead of a second copy.
//     Under memory pressure (working set larger than the fast tier) this
//     halves the bandwidth a promote→demote round trip costs.
//   - Abort-on-write: a write arriving while the promotion copy is in
//     flight aborts the transaction instead of migrating a torn page; the
//     page simply stays in the slow tier until a later attempt.
//
// The promotion trigger itself is TPP's (hint faults plus a recency
// second chance, recency.go): Nomad's contribution is the migration mechanism, not
// the hotness signal, and sharing the trigger isolates exactly that in
// the sweeps. The shadow machinery lives in the engine behind the
// TransactionalKernel interface; on kernels without it (unit-test fakes)
// the policy degrades to plain TryPromote.
//
// Nomad lives in this package rather than under policy/nomad because it
// reuses the retry/backoff helpers and — unlike the other baselines — it
// cannot import policy/scan (that package imports this one), so it walks
// the dense page table with its own keyed ticker instead.

import (
	"encoding/json"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// nomadScanPeriod is the hint-fault scan cadence over the slow tier,
// matching the scan package's default. One pass takes 1024 ticks.
const nomadScanPeriod = simclock.Minute

// Nomad is the transactional-migration baseline. The previous fault
// timestamp is kept in pg.Meta (see ReReferenced), like TPP.
//
//chrono:statesync nomadState
type Nomad struct {
	Base                     //chrono:rebuilt stateless method set
	k    Kernel              //chrono:rebuilt kernel handle, re-bound by Attach
	tk   TransactionalKernel //chrono:rebuilt nil when the kernel lacks transactions
	// step is the number of page-table slots visited per scan tick:
	// 1/1024 of the table, at least 8 (the scan package's pacing rule).
	step   int   //chrono:rebuilt pacing, derived from the table size
	cursor int64 //chrono:state Cursor
}

// NewNomad returns a Nomad policy.
func NewNomad() *Nomad { return &Nomad{} }

// Name implements Policy.
func (p *Nomad) Name() string { return "Nomad" }

// Attach implements Policy.
func (p *Nomad) Attach(k Kernel) {
	p.k = k
	p.tk, _ = k.(TransactionalKernel)
	p.step = max(len(k.Pages())/1024, 8)
	k.Clock().EveryKey("policy/nomad/scan", nomadScanPeriod/1024, func(now simclock.Time) {
		p.scanStep()
	})
	ReserveHeadroom(k.Node())
}

// scanStep protects the next window of slow-tier pages, wrapping the
// cursor over the dense page table. Protect charges the per-page scan
// cost itself.
func (p *Nomad) scanStep() {
	pages := p.k.Pages()
	if len(pages) == 0 {
		return
	}
	if p.cursor >= int64(len(pages)) {
		p.cursor = 0
	}
	for i := 0; i < p.step; i++ {
		pg := pages[p.cursor]
		p.cursor++
		if p.cursor >= int64(len(pages)) {
			p.cursor = 0
		}
		if pg != nil && pg.Tier == mem.SlowTier && !pg.Flags.Has(vm.FlagSwapped) {
			p.k.Protect(pg)
		}
	}
}

// OnFault implements Policy: promote on re-reference within the recency
// window, transactionally when the kernel supports it.
func (p *Nomad) OnFault(pg *vm.Page, now simclock.Time) {
	if pg.Tier != mem.SlowTier {
		return
	}
	if ReReferenced(pg, now) {
		if p.promote(pg) == MigrateTransient {
			// Busy page or aborted transaction: a bounded sim-time backoff
			// retries it instead of waiting for another hint-fault pair.
			PromoteBackoff(p.k, pg, 50*simclock.Millisecond, 3)
		}
	}
}

// promote runs one bounded transactional promotion attempt: two inline
// tries (the migrate_pages-style loop), shadow-retaining when available.
func (p *Nomad) promote(pg *vm.Page) MigrateResult {
	if p.tk == nil {
		return RetryPromote(p.k, pg, 2)
	}
	res := p.tk.PromoteShadowed(pg)
	if res == MigrateTransient {
		res = p.tk.PromoteShadowed(pg)
	}
	return res
}

// nomadState is Nomad's serializable dynamic state: per-page fault
// timestamps ride in pg.Meta inside the engine snapshot, so only the
// scan cursor is Nomad's own.
type nomadState struct {
	Cursor int64 `json:"cursor"`
}

// CheckpointState implements Policy.
func (p *Nomad) CheckpointState() (any, error) {
	return nomadState{Cursor: p.cursor}, nil
}

// RestoreCheckpoint implements Policy.
func (p *Nomad) RestoreCheckpoint(data []byte) error {
	var st nomadState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.cursor = st.Cursor
	return nil
}
