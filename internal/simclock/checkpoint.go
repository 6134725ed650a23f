package simclock

// Checkpointing: a Clock can serialize its complete dynamic state — the
// current time, sequence counter, fired-event watermark, and every pending
// event — and later rebuild it verbatim inside a freshly constructed
// simulation.
//
// Events are not serialized as callbacks (closures don't round-trip);
// instead every event carries a string key plus an integer payload pair
// (argI, n), so every clock can be snapshotted. Periodic events round-trip
// through the ticker registry: a record with Period > 0 re-arms the ticker
// registered under its key. One-shot events round-trip through binders: Restore hands the
// record to the BindFunc registered for its key, which must re-create the
// callback from the payload and schedule it (exactly once, same key); the
// clock patches the recorded sequence number onto whatever the binder
// schedules, so FIFO order among equal timestamps is preserved.

import (
	"fmt"
	"sort"
)

// EventRecord is one pending event in a State.
type EventRecord struct {
	At  Time   `json:"at"`
	Seq uint64 `json:"seq"`
	Key string `json:"key"`
	Arg int64  `json:"arg,omitempty"`
	N   uint64 `json:"n,omitempty"`
	// Period is the owning ticker's period for periodic events; 0 marks a
	// one-shot event (re-created through a binder).
	Period Duration `json:"period,omitempty"`
}

// State is the complete dynamic state of a Clock.
type State struct {
	Now   Time   `json:"now"`
	Seq   uint64 `json:"seq"`
	Fired uint64 `json:"fired"`
	// Events is the pending queue in (At, Seq) order.
	Events []EventRecord `json:"events"`
}

// BindFunc re-creates one keyed one-shot event at Restore time. It must
// schedule exactly one event under the record's key with AtKey; the
// clock assigns the record's sequence number to it.
type BindFunc func(rec EventRecord)

// BindKey registers the binder for one-shot events scheduled under key.
// Re-binding a key replaces the previous binder.
func (c *Clock) BindKey(key string, bind BindFunc) {
	if c.binders == nil {
		c.binders = make(map[string]BindFunc)
	}
	c.binders[key] = bind
}

// Snapshot serializes the clock's dynamic state.
func (c *Clock) Snapshot() *State {
	st := &State{Now: c.now, Seq: c.seq, Fired: c.fired}
	st.Events = make([]EventRecord, 0, len(c.queue))
	for _, ev := range c.queue {
		rec := EventRecord{At: ev.at, Seq: ev.seq, Key: ev.key, Arg: ev.argI, N: ev.n}
		if ev.tkr != nil {
			rec.Period = ev.tkr.period
		}
		st.Events = append(st.Events, rec)
	}
	sort.Slice(st.Events, func(i, j int) bool {
		a, b := st.Events[i], st.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Seq < b.Seq
	})
	return st
}

// Restore rebuilds the clock's dynamic state from a Snapshot taken on an
// identically constructed clock: every recorded ticker key must already be
// registered (EveryKey) and every one-shot key bound (BindKey). The
// current queue — the freshly armed tickers of a just-built simulation —
// is discarded and replaced by the recorded events, each keeping its
// original (At, Seq) position.
func (c *Clock) Restore(st *State) error {
	_, err := c.restore(st, false)
	return err
}

// RestoreInto rebuilds the clock's dynamic state from a snapshot taken on
// a DIFFERENTLY configured clock — the live policy-swap path. Unlike
// Restore, recorded events whose key has no registered ticker or binder
// here (the old policy's periodic work) are dropped rather than rejected,
// and freshly armed tickers with no recorded event (the new policy's
// periodic work, armed at Attach on the just-built clock) are adopted:
// each is re-armed at the first multiple of its period strictly after the
// snapshot time — the schedule it would have had if the new configuration
// had been running from t=0, so the swap point does not perturb phase.
// Adopted tickers draw fresh sequence numbers above the snapshot's, in
// sorted-key order, keeping the post-swap event order deterministic.
// Returns how many recorded events were dropped.
func (c *Clock) RestoreInto(st *State) (dropped int, err error) {
	return c.restore(st, true)
}

// restore is the shared body of Restore and RestoreInto; swap selects the
// cross-configuration behavior described on RestoreInto.
func (c *Clock) restore(st *State, swap bool) (dropped int, err error) {
	op := "restore"
	if swap {
		op = "restore-into"
	}
	// Validate up front so a failed restore leaves the clock untouched and
	// the caller can fall back to a from-scratch replay.
	seenTicker := make(map[string]bool)
	for _, rec := range st.Events {
		if !swap {
			if rec.Period > 0 {
				if _, ok := c.tickers[rec.Key]; !ok {
					return 0, fmt.Errorf("simclock: restore: no ticker registered for key %q", rec.Key)
				}
			} else if _, ok := c.binders[rec.Key]; !ok {
				return 0, fmt.Errorf("simclock: restore: no binder registered for key %q", rec.Key)
			}
		}
		if rec.At < st.Now {
			return 0, fmt.Errorf("simclock: %s: event %q at %v precedes snapshot time %v", op, rec.Key, rec.At, st.Now)
		}
		if rec.Period > 0 {
			if seenTicker[rec.Key] {
				return 0, fmt.Errorf("simclock: %s: duplicate pending event for ticker %q", op, rec.Key)
			}
			seenTicker[rec.Key] = true
		}
	}

	// The fresh queue is the just-built configuration's armed tickers;
	// a swap adopts the ones without a recorded event.
	var adopt []*Ticker
	for _, ev := range c.queue {
		if swap && ev.tkr != nil && !seenTicker[ev.key] && ev.tkr.period > 0 {
			adopt = append(adopt, ev.tkr)
		}
	}

	// Drop the fresh queue, un-arming tickers so records can re-arm them.
	for len(c.queue) > 0 {
		ev := c.popMin()
		if ev.tkr != nil {
			ev.tkr.armed = false
		}
		c.release(ev)
	}

	c.stopped = false
	c.now = st.Now
	c.fired = st.Fired
	for _, rec := range st.Events {
		var t *Ticker
		var bind BindFunc
		var ok bool
		if rec.Period > 0 {
			t, ok = c.tickers[rec.Key]
		} else {
			bind, ok = c.binders[rec.Key]
		}
		if !ok {
			dropped++ // swap only: the old configuration's key
			continue
		}
		c.restoring = true
		c.restoreSeq = rec.Seq
		c.restoreUsed = false
		if t != nil {
			t.cancel = false
			t.period = rec.Period
			if t.armed {
				c.restoring = false
				return dropped, fmt.Errorf("simclock: %s: duplicate pending event for ticker %q", op, rec.Key)
			}
			t.rearmAt(rec.At)
		} else {
			bind(rec)
		}
		used := c.restoreUsed
		c.restoring = false
		if !used {
			return dropped, fmt.Errorf("simclock: %s: binder for key %q scheduled no event", op, rec.Key)
		}
	}
	c.seq = st.Seq

	// Adopt the new configuration's tickers, in sorted-key order so their
	// fresh sequence numbers are deterministic.
	sort.Slice(adopt, func(i, j int) bool { return adopt[i].key < adopt[j].key })
	for _, t := range adopt {
		next := Time((int64(st.Now)/int64(t.period) + 1) * int64(t.period))
		t.cancel = false
		t.rearmAt(next)
	}
	return dropped, nil
}
