package policy

import (
	"chrono/internal/mem"
	"chrono/internal/vm"
)

// Exchange runs the hot/cold exchange loop shared by the batch-migrating
// policies (HeMem, Telescope, FlexMem). The caller classifies and orders
// the two lists; Exchange walks hot in order while budget (in base pages)
// covers the next page, first demoting cold pages in order until the fast
// tier has its High watermark plus the page's size free, then promoting
// the page. Every move gets up to attempts tries (RetryPromote,
// RetryDemote); demotion outcomes are not inspected.
//
// It returns the unspent budget, the cold pages not yet demoted, and the
// number of hot pages skipped on a transient promotion failure.
func Exchange(k Kernel, hot, cold []*vm.Page, budget, attempts int) (rest int, coldTail []*vm.Page, skips int) {
	node := k.Node()
	for _, pg := range hot {
		if budget < int(pg.Size) {
			break
		}
		for node.Free(mem.FastTier) < node.Watermarks(mem.FastTier).High+int64(pg.Size) && len(cold) > 0 {
			RetryDemote(k, cold[0], attempts)
			cold = cold[1:]
		}
		switch RetryPromote(k, pg, attempts) {
		case MigrateOK:
			budget -= int(pg.Size)
		case MigrateTransient:
			skips++
		}
	}
	return budget, cold, skips
}
