// Package simclock implements the discrete-event virtual-time engine that
// underlies the tiered-memory simulator.
//
// The engine maintains a monotonically increasing virtual clock with
// nanosecond resolution and a 4-ary implicit-heap event queue. Components
// (the kernel model, tiering policies, workload phase changes) schedule
// callbacks at absolute or relative virtual times; Run drains the queue in
// timestamp order, advancing the clock to each event as it fires.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps simulations deterministic for a fixed seed.
//
// Every event is keyed, so a clock can always be checkpointed (see
// checkpoint.go). There are three ways to schedule: EveryKey arms a
// periodic ticker, AtKey schedules a one-shot event, and BindKey registers
// how a Restore re-creates the one-shot events of a key.
//
// The queue is allocation-free in steady state: fired and cancelled events
// return to a free list and are recycled by later schedules. Only a Ticker
// cancels an event, and only its own pending one while it is armed, so no
// reference to a recycled slot outlives the event that held it.
package simclock

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It intentionally mirrors the kernel's ktime_t.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// MaxTime is the largest representable virtual timestamp. It is used as the
// "never" sentinel for events that fall beyond the simulation horizon.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the timestamp as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a virtual Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// EventFunc is a callback fired when the clock reaches its scheduled time.
type EventFunc func(now Time)

// event is a scheduled callback in the queue.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  EventFunc
	// key names the event for checkpointing.
	key string
	// argI and n are the event's serializable payload, carried into
	// EventRecord.Arg and EventRecord.N verbatim.
	argI int64
	n    uint64
	// tkr points back to the owning Ticker for periodic events, so Snapshot
	// can record the period and Restore can re-arm through the ticker.
	tkr *Ticker
	// index in the heap; -1 once fired or cancelled (i.e. on the free list).
	index int32
}

// freeChunk is how many events one backing array holds; chunked allocation
// keeps recycled events cache-adjacent.
const freeChunk = 64

// Clock is a discrete-event virtual clock. The zero value is not ready to
// use; call New.
type Clock struct {
	now     Time
	seq     uint64
	queue   []*event // 4-ary implicit min-heap ordered by (at, seq)
	free    []*event
	fired   uint64
	stopped bool

	// afterStep, when set, runs after every dispatched event, between
	// events: at that point every armed ticker has its next firing in the
	// queue, which makes it the one consistent instant to Snapshot, check
	// for cooperative interrupts, or publish progress.
	afterStep func()

	// tickers indexes the keyed periodic tickers by key; Restore re-arms
	// pending ticker events through it.
	tickers map[string]*Ticker
	// binders re-create keyed one-shot events at Restore time: the binder
	// for a record's key must schedule exactly one event under that key.
	binders map[string]BindFunc

	// Restore threads the exact recorded sequence number into the next
	// schedule call through these fields, so re-created events keep their
	// original FIFO order among equal timestamps.
	restoring   bool
	restoreSeq  uint64
	restoreUsed bool
}

// New returns a clock positioned at virtual time zero with an empty queue.
func New() *Clock {
	return &Clock{}
}

// SetAfterStep installs fn to run after every dispatched event (nil
// uninstalls it). The callback runs between events — every armed ticker's
// next firing is already queued — so it is the safe point to Snapshot the
// clock or Stop the run without perturbing event order.
func (c *Clock) SetAfterStep(fn func()) { c.afterStep = fn }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// NextAt returns the timestamp of the earliest pending event, or MaxTime
// when the queue is empty. It lets an external sequencer (the engine's
// fault replay) interleave its own timestamped work with the event queue
// without popping anything.
func (c *Clock) NextAt() Time {
	if len(c.queue) == 0 {
		return MaxTime
	}
	return c.queue[0].at
}

// AdvanceTo moves the clock forward to t without firing any event. It
// panics if t is in the past or if a pending event precedes t: callers
// replaying externally sequenced work must stop at NextAt and let Step
// dispatch the queued event first, or monotonicity would break.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		//chrono:allow hotalloc panic path only, never taken in a healthy run
		panic(fmt.Sprintf("simclock: AdvanceTo %v before now %v", t, c.now))
	}
	if len(c.queue) > 0 && c.queue[0].at < t {
		//chrono:allow hotalloc panic path only, never taken in a healthy run
		panic(fmt.Sprintf("simclock: AdvanceTo %v skips pending event at %v", t, c.queue[0].at))
	}
	c.now = t
}

// Pending returns the number of events still queued.
func (c *Clock) Pending() int { return len(c.queue) }

// Fired returns the total number of events dispatched so far.
func (c *Clock) Fired() uint64 { return c.fired }

// alloc takes an event from the free list, refilling it in chunks.
func (c *Clock) alloc() *event {
	if len(c.free) == 0 {
		chunk := make([]event, freeChunk)
		for i := range chunk {
			c.free = append(c.free, &chunk[i])
		}
	}
	ev := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return ev
}

// release returns a fired or cancelled event to the free list, dropping
// callback/arg references so recycled slots don't pin dead objects.
func (c *Clock) release(ev *event) {
	ev.index = -1
	ev.fn = nil
	ev.key = ""
	ev.argI = 0
	ev.n = 0
	ev.tkr = nil
	c.free = append(c.free, ev)
}

// less orders events by (at, seq): earliest timestamp first, FIFO within a
// timestamp.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves queue[i] toward the root until the heap order holds.
func (c *Clock) siftUp(i int) {
	q := c.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown moves queue[i] toward the leaves until the heap order holds.
func (c *Clock) siftDown(i int) {
	q := c.queue
	n := len(q)
	ev := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if less(q[j], q[best]) {
				best = j
			}
		}
		if !less(q[best], ev) {
			break
		}
		q[i] = q[best]
		q[i].index = int32(i)
		i = best
	}
	q[i] = ev
	ev.index = int32(i)
}

// push inserts ev into the heap.
func (c *Clock) push(ev *event) {
	ev.index = int32(len(c.queue))
	c.queue = append(c.queue, ev)
	c.siftUp(len(c.queue) - 1)
}

// popMin removes and returns the earliest event.
func (c *Clock) popMin() *event {
	q := c.queue
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	c.queue = q[:n]
	if n > 0 {
		c.siftDown(0)
	}
	min.index = -1
	return min
}

// remove deletes the event at heap position i.
func (c *Clock) remove(i int) {
	q := c.queue
	n := len(q) - 1
	ev := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = int32(i)
	}
	q[n] = nil
	c.queue = q[:n]
	if i < n {
		c.siftDown(i)
		c.siftUp(i)
	}
	ev.index = -1
}

// schedule validates t and enqueues a freshly filled event.
func (c *Clock) schedule(t Time, ev *event) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", t, c.now))
	}
	ev.at = t
	if c.restoring {
		// Restore re-creates a recorded event: reuse its original sequence
		// number instead of drawing a fresh one, so FIFO order among equal
		// timestamps survives the round trip.
		if c.restoreUsed {
			panic(fmt.Sprintf("simclock: binder for key %q scheduled more than one event", ev.key))
		}
		ev.seq = c.restoreSeq
		c.restoreUsed = true
	} else {
		ev.seq = c.seq
		c.seq++
	}
	c.push(ev)
}

// AtKey schedules fn at absolute time t under a checkpoint key with a
// serializable integer payload pair. A Snapshot records (key, argI, n); the
// binder registered for key re-creates the callback from them at Restore.
// Scheduling in the past (t < Now) panics: the simulator has no causality
// violations by design.
func (c *Clock) AtKey(t Time, key string, argI int64, n uint64, fn EventFunc) {
	if key == "" {
		panic("simclock: AtKey with empty key")
	}
	ev := c.alloc()
	ev.fn = fn
	ev.key = key
	ev.argI = argI
	ev.n = n
	c.schedule(t, ev)
}

// EveryKey schedules fn to run every period, starting one period from
// now, under a checkpoint key: the ticker registers itself so a Restore
// can re-arm its pending event (and restore a Reset period) by key. Keys
// must be unique per clock. The callback may call Clock.Stop or cancel the
// returned ticker to end the series. Period must be positive.
func (c *Clock) EveryKey(key string, period Duration, fn EventFunc) *Ticker {
	if key == "" {
		panic("simclock: EveryKey with empty key")
	}
	if old, dup := c.tickers[key]; dup && !old.cancel {
		// A cancelled ticker may be superseded (an engine Run after a
		// previous Run under the same keys); two live tickers on one key
		// would make Restore ambiguous.
		panic(fmt.Sprintf("simclock: duplicate ticker key %q", key))
	}
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive period %d", period))
	}
	t := &Ticker{clock: c, key: key, period: period, fn: fn}
	// One tick closure for the ticker's whole life: re-arming schedules the
	// same function value again instead of building a fresh closure per
	// firing.
	t.tick = func(now Time) {
		t.armed = false
		if t.cancel {
			return
		}
		t.fn(now)
		if !t.cancel && !t.armed {
			t.schedule()
		}
	}
	t.schedule()
	if c.tickers == nil {
		c.tickers = make(map[string]*Ticker)
	}
	c.tickers[key] = t
	return t
}

// Ticker re-arms a periodic callback. Cancel stops future firings.
type Ticker struct {
	clock  *Clock
	key    string
	period Duration
	fn     EventFunc
	tick   EventFunc
	// ev is the pending firing; it names a live queue slot only while
	// armed, since the slot is recycled once the event fires.
	ev     *event
	cancel bool
	armed  bool
}

func (t *Ticker) schedule() {
	t.rearmAt(t.clock.now + t.period)
}

// rearmAt schedules the ticker's next firing at an absolute time, tagging
// the event with the ticker so Snapshot/Restore can round-trip it.
func (t *Ticker) rearmAt(at Time) {
	t.armed = true
	c := t.clock
	ev := c.alloc()
	ev.fn = t.tick
	ev.key = t.key
	ev.tkr = t
	t.ev = ev
	c.schedule(at, ev)
}

// disarm removes the ticker's pending firing, if any.
func (t *Ticker) disarm() {
	if t.armed {
		t.clock.cancel(t.ev)
		t.armed = false
	}
}

// Cancel stops the ticker after any in-flight callback.
func (t *Ticker) Cancel() {
	t.cancel = true
	t.disarm()
}

// Period returns the ticker's current period.
func (t *Ticker) Period() Duration { return t.period }

// Restart revives a cancelled ticker, scheduling its next firing one period
// from now. Restarting a live ticker is a no-op. A keyed ticker keeps its
// registry slot across Cancel/Restart, so a caller running the same
// simulation phases repeatedly can reuse one ticker per key instead of
// allocating a fresh one per run.
func (t *Ticker) Restart() {
	t.cancel = false
	if !t.armed {
		t.schedule()
	}
}

// Reset changes the ticker period. A pending firing is rescheduled to the
// new cadence immediately; when called from inside the ticker's own
// callback, the new period applies from the next firing.
func (t *Ticker) Reset(period Duration) {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive period %d", period))
	}
	t.period = period
	if t.armed {
		t.disarm()
		if !t.cancel {
			t.schedule()
		}
	}
}

// cancel removes a queued event and recycles its slot. ev must still be
// queued: a Ticker only cancels its own firing while it is armed.
func (c *Clock) cancel(ev *event) {
	c.remove(int(ev.index))
	c.release(ev)
}

// Step fires the single earliest event, advancing the clock to it.
// It reports false when the queue is empty.
func (c *Clock) Step() bool {
	if len(c.queue) == 0 || c.stopped {
		return false
	}
	ev := c.popMin()
	c.now = ev.at
	c.fired++
	// Capture the callback before recycling the event: the callback itself
	// may schedule new events and reuse this slot.
	fn := ev.fn
	c.release(ev)
	fn(c.now)
	return true
}

// StepAfter fires the single earliest event and then runs the afterStep
// hook, exactly as one iteration of RunUntil would. Callers that interleave
// their own work between master events (the engine's fault replay)
// use it to keep hook semantics identical to a plain RunUntil drain.
//
//chrono:hotpath
func (c *Clock) StepAfter() bool {
	if !c.Step() {
		return false
	}
	if c.afterStep != nil {
		c.afterStep()
	}
	return true
}

// RunUntil drains events until the queue is empty, Stop is called, or the
// next event lies beyond the deadline. The clock finishes positioned at
// deadline (if reached) or at the last fired event.
func (c *Clock) RunUntil(deadline Time) {
	for !c.stopped && len(c.queue) > 0 && c.queue[0].at <= deadline {
		c.Step()
		if c.afterStep != nil {
			c.afterStep()
		}
	}
	if !c.stopped && c.now < deadline {
		c.now = deadline
	}
}

// Run drains the queue completely (or until Stop).
func (c *Clock) Run() {
	for c.Step() {
		if c.afterStep != nil {
			c.afterStep()
		}
	}
}

// Stop halts Run/RunUntil after the current event returns.
func (c *Clock) Stop() { c.stopped = true }

// Stopped reports whether Stop has been called.
func (c *Clock) Stopped() bool { return c.stopped }
