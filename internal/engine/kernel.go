package engine

import (
	"math"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// This file implements the policy.Kernel surface: hint-fault generation,
// accessed-bit emulation, migration, reclaim, and PEBS sampling.

// minFaultRate is the page rate below which no fault event is scheduled
// (the page would fault beyond any realistic horizon; the next scan
// restamps it anyway).
const minFaultRate = 1e-4 // < one access per ~3 virtual hours

// Protect poisons pg PROT_NONE and stamps the scan timestamp. The fault
// timer is deferred: Protect records (page, seq, injected delay), and the
// gap draw happens at the next fault drain (faults.go). The draw is a
// stateless hash of (faultSeed, page ID, fault seq), so deferral changes
// neither the value nor any engine RNG stream.
func (e *Engine) Protect(pg *vm.Page) {
	if pg.Flags.Has(vm.FlagSwapped) {
		return // non-resident: there is no PTE to poison
	}
	pg.Flags |= vm.FlagProtNone
	pg.ProtTS = e.clock.Now()
	pg.FaultSeq++
	e.ChargeKernel(scanPageNS.Mul(float64(pg.Size)).Mul(e.costScale))
	// Injected delivery delay: under scheduling pressure the faulting
	// thread observes the poisoned PTE late. Drawn here — the injector
	// stream is serial — so materialization stays stateless.
	delay := e.inj.FaultDelay()
	e.pendingProts = append(e.pendingProts, pendingProt{id: pg.ID, seq: pg.FaultSeq, delay: delay})
}

// Unprotect clears the poisoning without delivering a fault. Cancellation
// is lazy: the seq bump invalidates any pending deferred Protect or
// materialized timer, which the drain filters on pop.
func (e *Engine) Unprotect(pg *vm.Page) {
	pg.Flags &^= vm.FlagProtNone
	pg.FaultSeq++
}

// AccessedTestAndClear emulates the PTE accessed-bit read-and-clear.
//
// The simulated page aggregates CostScale real 4 KB pages; the accessed
// bit a real policy reads belongs to ONE of them, so the reference
// probability uses the per-real-page rate (aggregate / CostScale). This
// is what gives accessed-bit policies their real, coarse 0-1
// access-per-window resolution (paper Table 1) instead of an
// artificially sharpened aggregate signal.
func (e *Engine) AccessedTestAndClear(pg *vm.Page) bool {
	now := e.clock.Now()
	e.ChargeKernel(aBitTestNS.Mul(e.costScale))
	dt := (now - pg.ABitTS).Seconds()
	pg.ABitTS = now
	rate := e.PageRate(pg) / e.costScale * float64(pg.Size)
	if rate <= 0 || dt <= 0 {
		return false
	}
	p := rate * dt
	if p > 1 {
		p = 1
	}
	return e.rFault.Bool(p)
}

// migBudgetOK checks and consumes migration bandwidth tokens for a move
// of the given page count. A dry bucket fails the migration, as the
// kernel's migrate_pages path does under sustained pressure.
func (e *Engine) migBudgetOK(pages int64) bool {
	bytes := float64(pages * e.node.PageSizeBytes)
	if e.migTokens < bytes {
		return false
	}
	e.migTokens -= bytes
	return true
}

// MigrationsDry implements policy.Kernel. With no fault injector and an
// empty shadow FIFO (every live shadow has an entry), a TryDemote refused
// by the token bucket draws from no stream and changes no state; below
// one base page's bytes the bucket refuses every move, and it refills
// only in epoch accounting. So until the next epoch every TryDemote is a
// no-op.
func (e *Engine) MigrationsDry() bool {
	return e.inj == nil && len(e.shadowFIFO) == 0 &&
		e.migTokens < float64(e.node.PageSizeBytes)
}

// admitted runs the attached policy's Admitter hook, if any. Callers
// consult it once per promotion attempt, after the already-fast shortcut
// and before direct reclaim.
func (e *Engine) admitted(pg *vm.Page) bool {
	return e.admit == nil || e.admit.AdmitPromotion(pg)
}

// TryPromote implements policy.Kernel. Transient aborts (injected
// busy/pinned pages or watermark allocation failures) leave the page and
// all capacity/budget accounting untouched, so a retry observes the same
// state the failed attempt did.
func (e *Engine) TryPromote(pg *vm.Page) policy.MigrateResult {
	swapped := pg.Flags.Has(vm.FlagSwapped)
	if pg.Tier == mem.FastTier && !swapped {
		return policy.MigrateOK
	}
	if !e.admitted(pg) {
		return policy.MigrateDenied
	}
	if swapped {
		// Promoting a reclaimed page is a swap-in to the fast tier.
		if !e.ensureFastFree(int64(pg.Size)) {
			return policy.MigrateNoCapacity
		}
		if e.allocFaultNear(mem.FastTier) {
			e.M.FailedPromotions++
			return policy.MigrateTransient
		}
		if !e.swapIn(pg, mem.FastTier) {
			return policy.MigrateNoCapacity
		}
		return policy.MigrateOK
	}
	if !e.ensureFastFree(int64(pg.Size)) {
		return policy.MigrateNoCapacity
	}
	if e.inj.MigrationBusy() || e.allocFaultNear(mem.FastTier) {
		e.abortMigration(pg)
		e.M.FailedPromotions++
		return policy.MigrateTransient
	}
	if !e.migBudgetOK(int64(pg.Size)) {
		return policy.MigrateThrottled
	}
	if err := e.moveTier(pg, mem.FastTier); err != nil {
		e.M.FailedPromotions++
		return policy.MigrateTransient
	}
	return policy.MigrateOK
}

// TryDemote implements policy.Kernel; same contract as TryPromote toward
// the slow tier. A page holding a clean shadow copy demotes for free: its
// slow-tier frames are already current, so the "move" is a remap.
func (e *Engine) TryDemote(pg *vm.Page) policy.MigrateResult {
	if pg.Flags.Has(vm.FlagSwapped) {
		return policy.MigrateNoCapacity // non-resident
	}
	if pg.Tier == mem.SlowTier {
		return policy.MigrateOK
	}
	if e.shadowActive(pg.ID) {
		return e.demoteToShadow(pg)
	}
	if e.node.Free(mem.SlowTier) < int64(pg.Size) {
		// Before giving up, reclaim shadow copies: shadows are an
		// optimization, never a reservation, and must not starve real
		// demotions of slow-tier capacity.
		e.reclaimShadows(int64(pg.Size))
	}
	if e.node.Free(mem.SlowTier) < int64(pg.Size) {
		// Slow tier exhausted: would swap to disk, out of scope.
		return policy.MigrateNoCapacity
	}
	if e.inj.MigrationBusy() || e.allocFaultNear(mem.SlowTier) {
		e.abortMigration(pg)
		e.M.FailedDemotions++
		return policy.MigrateTransient
	}
	if !e.migBudgetOK(int64(pg.Size)) {
		return policy.MigrateThrottled
	}
	if err := e.moveTier(pg, mem.SlowTier); err != nil {
		e.M.FailedDemotions++
		return policy.MigrateTransient
	}
	return policy.MigrateOK
}

// growShadow sizes the shadow columns to the page table. Lazy: engines
// that never promote transactionally keep them empty.
func (e *Engine) growShadow() {
	if len(e.shadowed) < len(e.pages) {
		e.shadowed = append(e.shadowed, make([]bool, len(e.pages)-len(e.shadowed))...)
		e.shadowTS = append(e.shadowTS, make([]simclock.Time, len(e.pages)-len(e.shadowTS))...)
	}
}

// shadowActive reports whether the page with the given ID holds a live
// slow-tier shadow copy.
func (e *Engine) shadowActive(id int64) bool {
	return id >= 0 && id < int64(len(e.shadowed)) && e.shadowed[id]
}

// Shadowed implements policy.TransactionalKernel.
func (e *Engine) Shadowed(pg *vm.Page) bool { return e.shadowActive(pg.ID) }

// realWriteRate returns the writes/second one real 4 KB page covered by pg
// sustains — the dirtying rate the transactional machinery reasons about
// (the shadow copy of a real page goes stale on the first write to it).
func (e *Engine) realWriteRate(pg *vm.Page) float64 {
	return e.PageRate(pg) * (1 - e.pageRF[pg.ID]) / (e.costScale * float64(pg.Size))
}

// PromoteShadowed implements policy.TransactionalKernel: TryPromote, but
// on success the page's slow-tier frames are retained as a shadow copy,
// and a write racing the copy aborts the transaction (Nomad's
// abort-on-write) instead of migrating a torn page. Admission runs once
// per attempt, here or in the TryPromote a swapped page delegates to.
func (e *Engine) PromoteShadowed(pg *vm.Page) policy.MigrateResult {
	if pg.Flags.Has(vm.FlagSwapped) {
		return e.TryPromote(pg) // swap-in: there is no slow copy to retain
	}
	if pg.Tier == mem.FastTier {
		return policy.MigrateOK
	}
	if !e.admitted(pg) {
		return policy.MigrateDenied
	}
	if !e.ensureFastFree(int64(pg.Size)) {
		return policy.MigrateNoCapacity
	}
	if e.inj.MigrationBusy() || e.allocFaultNear(mem.FastTier) {
		e.abortMigration(pg)
		e.M.FailedPromotions++
		return policy.MigrateTransient
	}
	// Abort-on-write: the transaction spans the page's copy window; a
	// write landing inside it dirties the source mid-copy and rolls the
	// transaction back. The dirtying rate is per real page — the batch
	// copy window is what one real page's transaction is exposed to.
	if w := e.realWriteRate(pg); w > 0 {
		window := e.node.CopyTime(int64(pg.Size)).Seconds()
		if e.rShadow.Bool(1 - math.Exp(-w*window)) {
			e.abortMigration(pg)
			e.M.NomadAborts++
			return policy.MigrateTransient
		}
	}
	if !e.migBudgetOK(int64(pg.Size)) {
		return policy.MigrateThrottled
	}
	if err := e.promoteShadow(pg); err != nil {
		e.M.FailedPromotions++
		return policy.MigrateTransient
	}
	return policy.MigrateOK
}

// promoteShadow performs the transactional promotion: copy to the fast
// tier with full migration accounting, but keep the slow-tier allocation
// as the page's shadow.
func (e *Engine) promoteShadow(pg *vm.Page) error {
	now := e.clock.Now()
	copyTime, err := e.node.CopyPages(mem.SlowTier, mem.FastTier, int64(pg.Size))
	if err != nil {
		if e.sanitize {
			sanitizeViolation("promoteShadow page %d (%d pages) after capacity check: %v",
				pg.ID, pg.Size, err)
		}
		e.M.MoveTierErrors++
		return err
	}
	e.ChargeKernel((migrateFixedNS + migratePerPageNS.Mul(float64(pg.Size))).Mul(e.costScale) + units.NSOf(copyTime))
	e.M.ContextSwitches += 0.5
	bytes := float64(int64(pg.Size) * e.node.PageSizeBytes)
	e.M.MigratedBytes += bytes
	e.epochMigBytes += bytes
	e.M.Promotions++
	if pg.Flags.Has(vm.FlagProtNone) {
		e.Unprotect(pg)
	}
	e.kLRU[mem.SlowTier].Drop(pg.ID)
	e.kLRU[mem.FastTier].Active.PushFront(pg.ID)
	ps := e.procs[pg.Proc.Slot]
	w := e.pageW[pg.ID]
	rf := e.pageRF[pg.ID]
	ps.wRead[mem.SlowTier] -= w * rf
	ps.wWrite[mem.SlowTier] -= w * (1 - rf)
	ps.wRead[mem.FastTier] += w * rf
	ps.wWrite[mem.FastTier] += w * (1 - rf)
	ps.residentFast += int64(pg.Size)
	ps.residentSlow -= int64(pg.Size)
	pg.Tier = mem.FastTier
	e.everPromoted[pg.ID] = true
	if pg.DemoteTS > 0 {
		e.M.RePromotions++
	}
	pg.PromoteTS = now
	e.growShadow()
	e.shadowed[pg.ID] = true
	e.shadowTS[pg.ID] = now
	e.shadowFIFO = append(e.shadowFIFO, pg.ID)
	e.shadowBase += int64(pg.Size)
	if e.pol != nil {
		e.pol.OnMigrated(pg, mem.SlowTier, mem.FastTier)
	}
	return nil
}

// demoteToShadow demotes a shadowed page. Clean shadow: the slow copy is
// current, so the demotion is a zero-copy remap — no page copy, no
// migration bandwidth, no token charge. Dirty shadow (writes landed since
// the shadow was cut): the copy is stale, drop it and take the regular
// copying path.
func (e *Engine) demoteToShadow(pg *vm.Page) policy.MigrateResult {
	now := e.clock.Now()
	id := pg.ID
	if w := e.realWriteRate(pg); w > 0 {
		if age := (now - e.shadowTS[id]).Seconds(); age > 0 {
			if e.rShadow.Bool(1 - math.Exp(-w*age)) {
				e.dropShadow(pg)
				e.M.ShadowStale++
				return e.TryDemote(pg) // shadow gone: regular copying demote
			}
		}
	}
	e.ChargeKernel(migrateFixedNS.Mul(e.costScale))
	e.M.ContextSwitches += 0.5
	e.M.ShadowDemotions++
	if pg.PromoteTS > 0 && now-pg.PromoteTS <= thrashWindowNS {
		// The round trip still wasted the promotion's copy, even though
		// the demotion itself was free.
		e.M.ThrashDemotions++
		e.M.ThrashBytes += float64(int64(pg.Size) * e.node.PageSizeBytes)
	}
	if pg.Flags.Has(vm.FlagProtNone) {
		e.Unprotect(pg)
	}
	e.kLRU[mem.FastTier].Drop(id)
	e.kLRU[mem.SlowTier].AddNew(id)
	ps := e.procs[pg.Proc.Slot]
	w := e.pageW[id]
	rf := e.pageRF[id]
	ps.wRead[mem.FastTier] -= w * rf
	ps.wWrite[mem.FastTier] -= w * (1 - rf)
	ps.wRead[mem.SlowTier] += w * rf
	ps.wWrite[mem.SlowTier] += w * (1 - rf)
	ps.residentFast -= int64(pg.Size)
	ps.residentSlow += int64(pg.Size)
	// Commit: the fast-tier frames retire and the shadow allocation
	// becomes the page's slow-tier residency.
	e.node.FreePages(mem.FastTier, int64(pg.Size))
	e.shadowed[id] = false
	e.shadowBase -= int64(pg.Size)
	pg.Tier = mem.SlowTier
	pg.DemoteTS = now
	e.everSlow[id] = true
	if e.pol != nil {
		e.pol.OnMigrated(pg, mem.FastTier, mem.SlowTier)
	}
	return policy.MigrateOK
}

// dropShadow releases a page's shadow frames back to the slow tier. The
// page itself is untouched; its FIFO entry goes stale in place.
func (e *Engine) dropShadow(pg *vm.Page) {
	e.node.FreePages(mem.SlowTier, int64(pg.Size))
	e.shadowed[pg.ID] = false
	e.shadowBase -= int64(pg.Size)
}

// reclaimShadows drops the oldest live shadows until the slow tier has
// room for need pages or no shadows remain.
func (e *Engine) reclaimShadows(need int64) {
	for e.node.Free(mem.SlowTier) < need && len(e.shadowFIFO) > 0 {
		id := e.shadowFIFO[0]
		e.shadowFIFO = e.shadowFIFO[1:]
		if id < 0 || id >= int64(len(e.pages)) || e.pages[id] == nil || !e.shadowActive(id) {
			continue // stale entry: shadow already consumed or dropped
		}
		e.dropShadow(e.pages[id])
		e.M.ShadowReclaims++
	}
}

// allocFaultNear asks the injector for a transient allocation failure,
// but only when the destination tier is actually near its watermarks —
// a zone with plenty of free pages does not fail allocations.
func (e *Engine) allocFaultNear(t mem.TierID) bool {
	if e.inj == nil {
		return false
	}
	wm := e.node.Watermarks(t)
	if e.node.Free(t) >= 4*wm.High {
		return false
	}
	return e.inj.AllocFail()
}

// abortMigration charges the kernel work of a NOMAD-style transactional
// abort: the unmap and rollback happen, the copy does not. No capacity,
// token, or LRU state changes — the page is exactly where it was.
func (e *Engine) abortMigration(pg *vm.Page) {
	ns := (migrateFixedNS + migratePerPageNS.Mul(float64(pg.Size)).Mul(0.5)).Mul(e.costScale)
	e.ChargeKernel(ns)
	e.M.AbortedMigrationNS += float64(ns)
}

// ensureFastFree direct-reclaims (demotes inactive fast-tier pages) until
// at least n pages are free, or reports failure. Transient demotion
// aborts retry within the guard budget — direct reclaim spins past a
// busy victim the way the real reclaim loop does — while capacity
// exhaustion stops the reclaim immediately.
func (e *Engine) ensureFastFree(n int64) bool {
	if e.node.Free(mem.FastTier) >= n {
		return true
	}
	// Direct reclaim: demote from the cold end of the fast inactive list.
	guard := 4096
	for e.node.Free(mem.FastTier) < n && guard > 0 {
		guard--
		victim := e.reclaimVictim()
		if victim == nil {
			return false
		}
		switch e.TryDemote(victim) {
		case policy.MigrateOK:
		case policy.MigrateTransient:
			continue
		default:
			return false
		}
	}
	return e.node.Free(mem.FastTier) >= n
}

// reclaimVictim picks the next fast-tier reclaim candidate: the tail of
// the inactive list, falling back to aging the active list.
//
// Pressure-driven deactivation is positional (no referenced-bit test):
// under sustained reclaim the kernel rotates the active tail down faster
// than accessed bits can accumulate signal, so victims approach rotation
// order over the resident set. The periodic ageLRU pass is where the
// (minute-scale) accessed-bit information enters the lists.
func (e *Engine) reclaimVictim() *vm.Page {
	t := e.kLRU[mem.FastTier]
	id := t.Inactive.Back()
	if id < 0 {
		t.Age(nil)
		id = t.Inactive.Back()
	}
	if id < 0 {
		id = t.Active.Back()
	}
	if id < 0 {
		return nil
	}
	return e.pages[id]
}

// moveTier performs the tier transfer with full accounting. A MovePages
// failure here means the capacity check above disagreed with the node's
// actual state — a simulator accounting bug. Debug builds surface it
// through the sanitizer; release builds degrade it to a recoverable
// failed migration (the page stays put, the caller reports transient).
func (e *Engine) moveTier(pg *vm.Page, to mem.TierID) error {
	from := pg.Tier
	if e.shadowActive(pg.ID) {
		// Any copying move invalidates a retained shadow (the slow copy
		// would alias the page's new frames or go stale unobserved).
		e.dropShadow(pg)
	}
	copyTime, err := e.node.MovePages(from, to, int64(pg.Size))
	if err != nil {
		if e.sanitize {
			sanitizeViolation("moveTier page %d (%d pages, tier %d -> %d) after capacity check: %v",
				pg.ID, pg.Size, from, to, err)
		}
		e.M.MoveTierErrors++
		return err
	}
	// Kernel work: unmap, copy, remap, TLB shootdown.
	e.ChargeKernel((migrateFixedNS + migratePerPageNS.Mul(float64(pg.Size))).Mul(e.costScale) + units.NSOf(copyTime))
	e.M.ContextSwitches += 0.5
	e.M.MigratedBytes += float64(int64(pg.Size) * e.node.PageSizeBytes)
	e.epochMigBytes += float64(int64(pg.Size) * e.node.PageSizeBytes)
	if to == mem.FastTier {
		e.M.Promotions++
	} else {
		e.M.Demotions++
	}

	// Cancel any pending fault: migration remaps the page.
	if pg.Flags.Has(vm.FlagProtNone) {
		e.Unprotect(pg)
	}

	// LRU: leave the old tier's lists, enter the new tier's.
	e.kLRU[from].Drop(pg.ID)
	if to == mem.FastTier {
		// A promoted page was judged hot: it enters the active list.
		e.kLRU[to].Active.PushFront(pg.ID)
	} else {
		e.kLRU[to].AddNew(pg.ID)
	}

	// Aggregates.
	ps := e.procs[pg.Proc.Slot]
	w := e.pageW[pg.ID]
	rf := e.pageRF[pg.ID]
	ps.wRead[from] -= w * rf
	ps.wWrite[from] -= w * (1 - rf)
	ps.wRead[to] += w * rf
	ps.wWrite[to] += w * (1 - rf)
	if to == mem.FastTier {
		ps.residentFast += int64(pg.Size)
		ps.residentSlow -= int64(pg.Size)
	} else {
		ps.residentFast -= int64(pg.Size)
		ps.residentSlow += int64(pg.Size)
	}
	pg.Tier = to
	now := e.clock.Now()
	if to == mem.SlowTier {
		if pg.PromoteTS > 0 && now-pg.PromoteTS <= thrashWindowNS {
			// Promote→demote round trip inside one thrash window: both copies
			// were wasted bandwidth (the anti-thrashing metric of the report).
			e.M.ThrashDemotions++
			e.M.ThrashBytes += 2 * float64(int64(pg.Size)*e.node.PageSizeBytes)
		}
		pg.DemoteTS = now
		e.everSlow[pg.ID] = true
	} else {
		if pg.DemoteTS > 0 {
			e.M.RePromotions++
		}
		pg.PromoteTS = now
		e.everPromoted[pg.ID] = true
	}
	if e.pol != nil {
		e.pol.OnMigrated(pg, from, to)
	}
	return nil
}

// AccessedSlowPages counts pages that were ever resident in the slow tier
// and carry a non-zero access weight — the PPR denominator (§2.4).
func (e *Engine) AccessedSlowPages() int64 {
	var n int64
	for id, pg := range e.pages {
		if pg != nil && e.everSlow[id] && e.pageW[id] > 0 {
			n++
		}
	}
	return n
}

// EverSlow reports whether the page was ever resident in the slow tier.
func (e *Engine) EverSlow(id int64) bool { return e.everSlow[id] }

// UniquePromotedPages counts distinct pages promoted at least once — the
// PPR numerator (§2.4: pages promoted to DRAM).
func (e *Engine) UniquePromotedPages() int64 {
	var n int64
	for id, pg := range e.pages {
		if pg != nil && e.everPromoted[id] {
			n++
		}
	}
	return n
}

// SplitHuge splits a folded huge page into its base pages (same tier, no
// copying). Returns the new pages, or nil if pg is not huge.
func (e *Engine) SplitHuge(pg *vm.Page) []*vm.Page {
	if !pg.IsHuge() {
		return nil
	}
	ps := e.procs[pg.Proc.Slot]
	now := e.clock.Now()
	// Retire the huge page.
	if pg.Flags.Has(vm.FlagProtNone) {
		e.Unprotect(pg)
	}
	if e.shadowActive(pg.ID) {
		e.dropShadow(pg) // the split pages no longer alias the shadow copy
	}
	e.kLRU[pg.Tier].Drop(pg.ID)
	pg.Proc.RemovePage(pg)
	if e.pol != nil {
		e.pol.OnPageFreed(pg)
	}
	w := e.pageW[pg.ID]
	rf := e.pageRF[pg.ID]
	ps.wRead[pg.Tier] -= w * rf
	ps.wWrite[pg.Tier] -= w * (1 - rf)
	e.pages[pg.ID] = nil
	e.pageW[pg.ID] = 0
	e.pageGen++

	// Split cost: 512 PTE writes + TLB shootdown.
	e.ChargeKernel(units.NS(25000 * e.costScale))

	e.reservePages(int(pg.Size))
	out := make([]*vm.Page, 0, pg.Size)
	for i := int32(0); i < pg.Size; i++ {
		vpn := pg.VPN + uint64(i)
		np := e.newPage()
		*np = vm.Page{
			ID:     int64(len(e.pages)),
			VPN:    vpn,
			Proc:   pg.Proc,
			Tier:   pg.Tier,
			Size:   1,
			ABitTS: now,
		}
		e.pages = append(e.pages, np)
		bw := pg.Proc.Weight(vpn)
		brf := pg.Proc.ReadFrac(vpn)
		e.pageW = append(e.pageW, bw)
		e.pageRF = append(e.pageRF, brf)
		e.everSlow = append(e.everSlow, np.Tier == mem.SlowTier)
		e.everPromoted = append(e.everPromoted, false)
		ps.wRead[np.Tier] += bw * brf
		ps.wWrite[np.Tier] += bw * (1 - brf)
		pg.Proc.InsertPage(np)
		e.kLRU[np.Tier].AddNew(np.ID)
		if e.pol != nil {
			e.pol.OnPageMapped(np)
		}
		out = append(out, np)
	}
	// The page-ID set changed: the alias table must not be sampled again
	// before a rebuild (freed IDs would be drawn).
	e.aliasStructural = true
	return out
}

// CostScale implements policy.Kernel.
func (e *Engine) CostScale() float64 { return e.costScale }

// HugeFactor implements policy.Kernel.
func (e *Engine) HugeFactor() int { return e.cfg.HugeFactor }

// HugeUtilization implements policy.Kernel: the fraction of covered base
// pages with non-zero access weight.
func (e *Engine) HugeUtilization(pg *vm.Page) float64 {
	if !pg.IsHuge() {
		return 1
	}
	var used int32
	for i := uint64(0); i < uint64(pg.Size); i++ {
		if pg.Proc.Weight(pg.VPN+i) > 0 {
			used++
		}
	}
	return float64(used) / float64(pg.Size)
}

// ChargeKernel accounts kernel CPU time.
func (e *Engine) ChargeKernel(ns units.NS) {
	e.M.KernelNS += float64(ns)
	e.kernelNSEpoch += float64(ns)
}

// CountContextSwitches adds context switches to the metrics.
func (e *Engine) CountContextSwitches(n int64) {
	e.M.ContextSwitches += float64(n)
}

// InactiveTail returns up to n cold-end pages of the tier's inactive list.
func (e *Engine) InactiveTail(tier mem.TierID, n int) []*vm.Page {
	ids := e.kLRU[tier].Inactive.TailN(n, nil)
	out := make([]*vm.Page, 0, len(ids))
	for _, id := range ids {
		if pg := e.pages[id]; pg != nil {
			out = append(out, pg)
		}
	}
	return out
}

// FastFree returns free fast-tier pages.
func (e *Engine) FastFree() int64 { return e.node.Free(mem.FastTier) }

// ageLRU runs the periodic active/inactive rebalance on both tiers:
// referenced inactive pages activate (so reclaim victims are genuinely
// cold even under policies that never fault), then the active tail ages
// down to restore the list balance.
func (e *Engine) ageLRU() {
	accessed := func(id int64) bool {
		pg := e.pages[id]
		if pg == nil {
			return false
		}
		return e.AccessedTestAndClear(pg)
	}
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		// The real inactive-list scan only covers a small slice of a
		// many-million-page list per aging interval; mirror that budget
		// so reclaim victims carry realistic noise.
		e.kLRU[t].ActivateReferenced(e.kLRU[t].Inactive.Len()/32, accessed)
		e.kLRU[t].Age(accessed)
	}
}

// kswapd demotes cold fast-tier pages when free memory falls below the
// high watermark, stopping at the pro watermark (§3.3.1). With the default
// pro == high this reproduces vanilla kswapd demotion; Chrono raises pro.
func (e *Engine) kswapd() {
	if !e.node.BelowHigh(mem.FastTier) {
		return
	}
	target := e.node.DemotionTarget(mem.FastTier)
	guard := 4096
	for target > 0 && guard > 0 {
		guard--
		victim := e.reclaimVictim()
		if victim == nil {
			return
		}
		switch e.TryDemote(victim) {
		case policy.MigrateOK:
		case policy.MigrateTransient:
			continue // busy victim: spin past it within the guard budget
		default:
			return
		}
		target = e.node.DemotionTarget(mem.FastTier)
	}
}

// SamplePEBS draws one sampling period's worth of PEBS samples into s,
// using the true page access-rate distribution. Implements policy.Kernel's
// hardware-sampling channel.
func (e *Engine) SamplePEBS(s *pebs.Sampler, period units.Sec) int {
	now := e.clock.Now()
	// Rebuild policy: structural staleness (pages created/freed) rebuilds
	// unconditionally — sampling a stale ID set would return freed pages.
	// Weight-only staleness tolerates a bounded lag: the O(pages) rebuild
	// is deferred until the table is pebsAliasMinRebuildS old, so per-epoch
	// pattern drift doesn't turn every sampling period into a full rebuild.
	// An unchanged table is still refreshed every pebsAliasRebuildS to
	// track rate shifts.
	age := units.SecondsOf(now - e.aliasBuiltAt)
	if e.aliasTable == nil || e.aliasStructural ||
		(e.aliasWeightDirty && age >= pebsAliasMinRebuildS) ||
		age > pebsAliasRebuildS {
		e.rebuildAlias()
	}
	if e.aliasTable == nil {
		return 0
	}
	// Injected overflow window: the DS-area buffer overflows and a
	// fraction of this period's samples is lost on top of the sampler's
	// own configured loss. The rate is restored right after the draw.
	var injLoss, oldLoss float64
	if injLoss = e.inj.PEBSLossFrac(); injLoss > 0 {
		oldLoss = s.LossRate
		s.LossRate = oldLoss + (1-oldLoss)*injLoss
	}
	before := s.Dropped()
	// Sampling micro-operations cost kernel/user time (the paper's §2.3
	// overhead point): ~300 ns per retained sample for the DS-area drain.
	n := s.SamplePeriod(e.aliasTable, e.aliasIDs, period)
	if injLoss > 0 {
		s.LossRate = oldLoss
	}
	e.M.PEBSDropped += float64(s.Dropped() - before)
	e.ChargeKernel(units.NS(float64(n) * 300 * e.costScale))
	return n
}

// rebuildAlias reconstructs the PEBS sampling distribution from current
// page rates. The weight/ID buffers are reused across rebuilds (the
// sampler reads aliasIDs only during SamplePeriod), the per-page rate uses
// the dense proc-slot index instead of a byPID map lookup, and a live
// table is refreshed in place with Rebuild, so steady-state rebuilds
// allocate nothing.
func (e *Engine) rebuildAlias() {
	weights := e.aliasW[:0]
	ids := e.aliasIDs[:0]
	for _, pg := range e.pages {
		if pg == nil {
			continue
		}
		ps := e.procs[pg.Proc.Slot]
		if ps.wTot == 0 {
			continue
		}
		r := ps.rate * e.pageW[pg.ID] / ps.wTot
		if r <= 0 {
			continue
		}
		weights = append(weights, r)
		ids = append(ids, pg.ID)
	}
	e.aliasW = weights
	e.aliasIDs = ids
	e.aliasBuiltAt = e.clock.Now()
	e.aliasWeightDirty = false
	e.aliasStructural = false
	if len(weights) == 0 {
		e.aliasTable = nil
		return
	}
	if e.aliasTable == nil {
		e.aliasTable = rng.NewAlias(e.rPEBS, weights)
	} else {
		e.aliasTable.Rebuild(weights)
	}
}
