package policy

import (
	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// This file provides the shared retry/backoff helpers policies use to
// degrade gracefully under transient migration failure instead of
// stalling or silently losing work.

// migrator is the slice of Kernel the inline retry helpers need; tests
// can satisfy it with a two-method fake.
type migrator interface {
	TryPromote(pg *vm.Page) MigrateResult
	TryDemote(pg *vm.Page) MigrateResult
}

// backoffKernel adds the clock needed for sim-time deferred retries.
type backoffKernel interface {
	migrator
	Clock() *simclock.Clock
}

// RetryPromote attempts TryPromote up to attempts times, retrying only
// transient failures. The inline retry models the kernel migrate_pages
// loop, which re-tries a busy page a bounded number of times within one
// call before reporting failure. Every other verdict (capacity,
// throttling, admission denial) is returned immediately — retrying it
// in the same instant cannot succeed.
func RetryPromote(k migrator, pg *vm.Page, attempts int) MigrateResult {
	res := k.TryPromote(pg)
	for i := 1; i < attempts && res == MigrateTransient; i++ {
		res = k.TryPromote(pg)
	}
	return res
}

// RetryDemote is RetryPromote toward the slow tier.
func RetryDemote(k migrator, pg *vm.Page, attempts int) MigrateResult {
	res := k.TryDemote(pg)
	for i := 1; i < attempts && res == MigrateTransient; i++ {
		res = k.TryDemote(pg)
	}
	return res
}

// backoffKey is the checkpoint key of pending promotion-retry events.
const backoffKey = "policy/backoff"

// packBackoff packs a retry's serializable payload into one event word:
// the base delay in nanoseconds (48 bits), the remaining attempts
// (8 bits), and the tier the page occupied when the retry was scheduled
// (8 bits).
func packBackoff(base simclock.Duration, attempts int, from mem.TierID) uint64 {
	return uint64(base)<<16 | uint64(attempts&0xff)<<8 | uint64(from)&0xff
}

func unpackBackoff(n uint64) (base simclock.Duration, attempts int, from mem.TierID) {
	return simclock.Duration(n >> 16), int(n >> 8 & 0xff), mem.TierID(n & 0xff)
}

// PromoteBackoff schedules up to attempts sim-time retries of a
// transiently failed promotion, the first after base and each subsequent
// one at twice the previous delay. The retry is abandoned if the page
// migrated or was freed in the meantime, and stops escalating on any
// non-transient outcome (success, or capacity exhaustion — by then the
// policy's regular scan owns the decision again). Fault-free runs never
// reach this path, so its allocations stay off the common path.
func PromoteBackoff(k backoffKernel, pg *vm.Page, base simclock.Duration, attempts int) {
	if attempts <= 0 || base <= 0 {
		return
	}
	scheduleBackoff(k, pg, k.Clock().Now()+base, packBackoff(base, attempts, pg.Tier))
}

// scheduleBackoff arms one keyed retry event. It is shared by the live
// path (PromoteBackoff) and the restore path (RegisterBackoffBinder), so
// a resumed run re-creates exactly the event the original scheduled.
func scheduleBackoff(k backoffKernel, pg *vm.Page, at simclock.Time, n uint64) {
	id := int64(-1)
	if pg != nil {
		id = pg.ID
	}
	k.Clock().AtKey(at, backoffKey, id, n, func(now simclock.Time) {
		base, attempts, from := unpackBackoff(n)
		if pg == nil || pg.Tier != from || pg.Flags.Has(vm.FlagSwapped) {
			return // already migrated or reclaimed: nothing to retry
		}
		if k.TryPromote(pg) == MigrateTransient {
			PromoteBackoff(k, pg, 2*base, attempts-1)
		}
	})
}

// RegisterBackoffBinder installs the Restore-time binder that re-creates
// pending PromoteBackoff events from their (page ID, packed payload)
// records. The engine registers it at construction so any policy's
// backoff events round-trip through a checkpoint.
func RegisterBackoffBinder(k Kernel) {
	k.Clock().BindKey(backoffKey, func(rec simclock.EventRecord) {
		var pg *vm.Page
		if pages := k.Pages(); rec.Arg >= 0 && rec.Arg < int64(len(pages)) {
			pg = pages[rec.Arg]
		}
		scheduleBackoff(k, pg, rec.At, rec.N)
	})
}
