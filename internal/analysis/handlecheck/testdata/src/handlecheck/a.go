// Package handlecheck is the seeded-violation corpus for the handlecheck
// analyzer.
package handlecheck

import "chrono/internal/simclock"

type holder struct {
	h simclock.Handle
}

func consume(h simclock.Handle) {}

func noop(now simclock.Time) {}

// badUseAfterCancel hands a cancelled handle to another owner.
func badUseAfterCancel(c *simclock.Clock) {
	h := c.AtKey(10, "k", 0, 0, noop)
	c.Cancel(h)
	consume(h) // want `h is used after Cancel`
}

// badFieldUseAfterCancel is the same bug through a struct field.
func badFieldUseAfterCancel(c *simclock.Clock, hd *holder) {
	c.Cancel(hd.h)
	consume(hd.h) // want `hd.h is used after Cancel`
}

// badReschedule overwrites a live handle: the first event keeps firing but
// can no longer be cancelled.
func badReschedule(c *simclock.Clock) simclock.Handle {
	h := c.AtKey(10, "k", 0, 0, noop)
	h = c.AtKey(20, "k", 0, 0, noop) // want `reschedules into h, which still holds a live handle`
	return h
}

// goodCancelThenReassign is the engine idiom (see Engine.Protect).
func goodCancelThenReassign(c *simclock.Clock, hd *holder) {
	c.Cancel(hd.h)
	hd.h = c.AtKey(30, "k", 0, 0, noop)
}

// goodCancelledQuery may inspect a stale handle.
func goodCancelledQuery(c *simclock.Clock) bool {
	h := c.AtKey(10, "k", 0, 0, noop)
	c.Cancel(h)
	return h.Cancelled()
}

// goodDoubleCancel is explicitly harmless: cancelling a stale handle is a
// no-op.
func goodDoubleCancel(c *simclock.Clock) {
	h := c.AtKey(10, "k", 0, 0, noop)
	c.Cancel(h)
	c.Cancel(h)
}

// goodBranchReset stays silent when the cancel happened under a condition:
// the handle's state is unknown afterwards.
func goodBranchReset(c *simclock.Clock, cond bool) {
	h := c.AtKey(10, "k", 0, 0, noop)
	if cond {
		c.Cancel(h)
	}
	consume(h)
}

// goodTicker uses the no-argument Ticker.Cancel, which retires the
// ticker's own handle internally.
func goodTicker(c *simclock.Clock) {
	t := c.EveryKey("t", 5, noop)
	t.Cancel()
}

// goodAllow documents a deliberate stale-handle use.
func goodAllow(c *simclock.Clock) {
	h := c.AtKey(10, "k", 0, 0, noop)
	c.Cancel(h)
	//chrono:allow handlecheck fixture: handle is only logged, never acted on
	consume(h)
}
