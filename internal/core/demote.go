package core

import (
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// This file implements proactive page demotion (§3.3.1) and the demotion
// side of the thrashing monitor (§3.3.2).

// demotionTick maintains the promotion-aware watermark and demotes cold
// pages when fast-tier availability falls below the high watermark.
//
// The gap between high and pro is "twice the default scan interval
// multiplied by the promotion rate limit" (§3.3.1): enough headroom to
// absorb two scan periods of promotions without stalling them.
func (c *Chrono) demotionTick(now simclock.Time) {
	node := c.k.Node()
	high := node.Watermarks(mem.FastTier).High
	gapPages := int64(2 * c.scan.Config().Period.Seconds() * c.rateLimitBps / float64(node.PageSizeBytes))
	// The headroom is bounded: demoting more than a modest slice of the
	// fast tier would evict hot pages to make room for hypothetical ones.
	maxGap := node.Capacity(mem.FastTier) / 8
	if gapPages > maxGap {
		gapPages = maxGap
	}
	node.SetProWatermark(high + gapPages)

	if !node.BelowHigh(mem.FastTier) {
		return
	}
	target := node.DemotionTarget(mem.FastTier)
	guard := 4096
	for target > 0 && guard > 0 {
		guard--
		victims := c.k.InactiveTail(mem.FastTier, 16)
		if len(victims) == 0 {
			return
		}
		progress := false
		for _, pg := range victims {
			if target <= 0 {
				break
			}
			if c.demotePage(pg, now) {
				target -= int64(pg.Size)
				progress = true
			}
		}
		if !progress {
			return
		}
		target = node.DemotionTarget(mem.FastTier)
	}
}

// demotePage demotes one page. The thrash-monitor bookkeeping (§3.3.2)
// happens in OnMigrated so that demotions initiated by the kernel's own
// reclaim are tracked identically.
func (c *Chrono) demotePage(pg *vm.Page, now simclock.Time) bool {
	if c.k.TryDemote(pg) != policy.MigrateOK {
		return false
	}
	c.Demoted++
	return true
}

// OnMigrated implements policy.Policy: every freshly demoted page — by
// Chrono's proactive daemon or by kernel reclaim — is flagged demoted and
// immediately poisoned, so its demotion timestamp substitutes for a
// Ticking-scan timestamp and it re-enters the promotion pipeline under
// the same CIT criteria (§3.3.2).
func (c *Chrono) OnMigrated(pg *vm.Page, from, to mem.TierID) {
	if to != mem.SlowTier {
		return
	}
	pg.Flags |= vm.FlagDemoted
	c.k.Protect(pg) // ProtTS := demotion time
}
