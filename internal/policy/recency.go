package policy

import (
	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// The hint-fault + recency trigger that TPP (Maruf et al., ASPLOS '23)
// introduced and Nomad reuses: a slow-tier page promotes on its second
// hint fault within a recency window, and the fast tier keeps allocation
// headroom above its high watermark.

// RecencyWindow is the re-reference second-chance window: a page whose
// previous hint fault is younger than this promotes. Hint faults arrive
// at most once per scan pass, so the window spans three scan periods
// (the LRU "active list" residency TPP checks) for the second-chance
// check to ever see a previous fault.
const RecencyWindow = 3 * simclock.Minute

// headroomFrac is the fast-tier allocation headroom above the high
// watermark, as a fraction of fast capacity.
const headroomFrac = 0.02

// ReReferenced records a hint fault at now in pg.Meta (nanoseconds) and
// reports whether the page's previous hint fault lies within
// RecencyWindow.
func ReReferenced(pg *vm.Page, now simclock.Time) bool {
	prev := simclock.Time(int64(pg.Meta))
	pg.Meta = uint64(now)
	return prev > 0 && now-prev <= RecencyWindow
}

// ReserveHeadroom raises the fast tier's pro watermark, the demotion
// target, headroomFrac of fast capacity above the high watermark: TPP's
// allocation-headroom mechanism, realized through the engine's watermark
// reclaim.
func ReserveHeadroom(node *mem.Node) {
	high := node.Watermarks(mem.FastTier).High
	node.SetProWatermark(high + int64(headroomFrac*float64(node.Capacity(mem.FastTier))))
}
