package engine

import (
	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// This file implements cgroup memory limits and slow-tier reclamation
// (paper §3.3.1): "It also enables Chrono to accommodate user-defined
// memory limits (e.g., cgroups memory.limit), while prioritizing the
// retention of hot pages in the fast tier. When memory limits are reached,
// Chrono initiates slow-tier reclamation to relieve memory pressure while
// maintaining the placement for hot pages."
//
// A reclaimed ("swapped") page stays in the page table but occupies no
// tier memory; its accesses pay the swap-device latency in the closed-loop
// model. Reclaim victims come from the process's slow-tier pages whose
// accessed bit shows no recent reference — cold data leaves, hot placement
// is untouched.

// SwapLatencyNS is the per-access cost of a swapped page (fast NVMe swap:
// queueing + 4K read).
const SwapLatencyNS = 9000

// SwappedOut reports the total base pages currently reclaimed to backing
// storage.
func (e *Engine) SwappedOut() int64 {
	var n int64
	for _, ps := range e.procs {
		n += ps.residentSwap
	}
	return n
}

// ResidentSwap returns the swapped base pages of one process.
func (e *Engine) ResidentSwap(p *vm.Process) int64 { return e.byPID[p.PID].residentSwap }

// SwapOut reclaims one slow-tier page to backing storage. It reports
// false when the page is not an unswapped slow-tier resident.
func (e *Engine) SwapOut(pg *vm.Page) bool {
	if pg.Tier != mem.SlowTier || pg.Flags.Has(vm.FlagSwapped) {
		return false
	}
	if pg.Flags.Has(vm.FlagProtNone) {
		e.Unprotect(pg)
	}
	e.kLRU[mem.SlowTier].Drop(pg.ID)
	e.node.FreePages(mem.SlowTier, int64(pg.Size))
	pg.Flags |= vm.FlagSwapped

	ps := e.byPID[pg.Proc.PID]
	w := e.pageW[pg.ID]
	rf := e.pageRF[pg.ID]
	ps.wRead[mem.SlowTier] -= w * rf
	ps.wWrite[mem.SlowTier] -= w * (1 - rf)
	ps.wSwap += w
	ps.residentSlow -= int64(pg.Size)
	ps.residentSwap += int64(pg.Size)

	// Writeback + unmap cost.
	e.ChargeKernel(units.NS(2500 * e.costScale))
	e.M.SwapOuts += int64(pg.Size)
	return true
}

// swapIn brings a swapped page back into the given tier. Returns false
// when the tier lacks space.
func (e *Engine) swapIn(pg *vm.Page, to mem.TierID) bool {
	if !pg.Flags.Has(vm.FlagSwapped) {
		return false
	}
	if err := e.node.Alloc(to, int64(pg.Size)); err != nil {
		return false
	}
	pg.Flags &^= vm.FlagSwapped
	pg.Tier = to
	e.kLRU[to].AddNew(pg.ID)

	ps := e.byPID[pg.Proc.PID]
	w := e.pageW[pg.ID]
	rf := e.pageRF[pg.ID]
	ps.wSwap -= w
	ps.wRead[to] += w * rf
	ps.wWrite[to] += w * (1 - rf)
	ps.residentSwap -= int64(pg.Size)
	if to == mem.FastTier {
		ps.residentFast += int64(pg.Size)
	} else {
		ps.residentSlow += int64(pg.Size)
	}
	e.ChargeKernel(units.NS(3000 * e.costScale))
	e.M.SwapIns += int64(pg.Size)
	return true
}

// cgroupReclaim enforces memory.limit on every process: while a process's
// resident footprint exceeds its limit, its idle slow-tier pages are
// reclaimed. A bounded batch runs per tick; victims are chosen by a
// round-robin accessed-bit scan over the process's slow pages, so hot
// pages survive.
func (e *Engine) cgroupReclaim(now simclock.Time) {
	for _, ps := range e.procs {
		limit := ps.proc.MemLimit
		if limit <= 0 {
			continue
		}
		over := ps.residentFast + ps.residentSlow - limit
		if over <= 0 {
			continue
		}
		e.reclaimProcess(ps, over)
	}
}

// reclaimProcess swaps out up to target base pages of ps, preferring
// pages whose accessed bit is clear; if the idle scan cannot find enough,
// it takes referenced slow pages too (hard limits must be enforced).
func (e *Engine) reclaimProcess(ps *procState, target int64) {
	var candidates []*vm.Page
	var fallback []*vm.Page
	scanned := 0
	const scanBudget = 512
	for _, pg := range e.pages {
		if target <= 0 || scanned >= scanBudget {
			break
		}
		if pg == nil || pg.Proc != ps.proc || pg.Tier != mem.SlowTier ||
			pg.Flags.Has(vm.FlagSwapped) {
			continue
		}
		scanned++
		if !e.AccessedTestAndClear(pg) {
			candidates = append(candidates, pg)
			target -= int64(pg.Size)
		} else {
			fallback = append(fallback, pg)
		}
	}
	for _, pg := range candidates {
		e.SwapOut(pg)
	}
	for _, pg := range fallback {
		if target <= 0 {
			break
		}
		if e.SwapOut(pg) {
			target -= int64(pg.Size)
		}
	}
}
