// Package watchdog is the host-side stall detector shared by durable
// sweep cells (internal/experiments) and daemon-hosted runs
// (internal/daemon): a goroutine polls a sim-time watermark on the wall
// clock and escalates in two stages when it freezes.
//
//   - Soft stall (frozen for Timeout): the soft flag is set. The run's
//     event hook observes it at the next event boundary, checkpoints, and
//     stops the clock — a clean abort with a resume pointer.
//   - Hard stall (frozen for 2×Timeout): the run never reached another
//     event boundary, so the hook cannot run and the goroutine cannot be
//     preempted. The hard channel is closed; the caller abandons the
//     goroutine (it parks itself if it ever yields) and walks away.
//
// Abandonment used to be invisible — a leaked goroutine and nothing
// else. Every abandonment now goes through NoteAbandoned, which counts
// it and logs it, so operators can see wedged-run debt accumulate in a
// long-lived process (chronod) or read the total from a failure
// manifest.
//
// Wall-clock time in this package is deliberate and lint-annotated:
// stall detection is a property of host execution, never of simulation
// state.
package watchdog

import (
	"log"
	"sync/atomic"
	"time"
)

// Watch polls progress every Timeout/8 (at least 1ms). Once the value has
// been frozen for timeout it sets soft on every subsequent tick; once
// frozen for 2×timeout it closes hard and returns. Closing stop returns
// without escalating. Run it in its own goroutine.
func Watch(timeout time.Duration, progress *atomic.Int64, soft *atomic.Bool, hard chan struct{}, stop <-chan struct{}) {
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick) //chrono:wallclock stall detection is host-side
	defer t.Stop()
	start := time.Now() //chrono:wallclock stall detection is host-side
	w := watch{timeout: timeout, last: progress.Load()}
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			//chrono:wallclock stall detection is host-side
			isSoft, isHard := w.step(progress.Load(), time.Since(start))
			if isSoft {
				soft.Store(true)
			}
			if isHard {
				close(hard)
				return
			}
		}
	}
}

// watch is Watch's escalation state, kept apart from the ticker so the
// escalation rule is a pure function of the polled watermarks and their
// times.
type watch struct {
	timeout time.Duration
	// last is the watermark at the previous poll; changed is the elapsed
	// time at which it last moved.
	last    int64
	changed time.Duration
}

// step folds in one poll: the watermark cur read at elapsed since Watch
// began. It reports a soft stall once the watermark has been frozen for
// timeout and a hard stall once frozen for 2×timeout.
func (w *watch) step(cur int64, elapsed time.Duration) (soft, hard bool) {
	if cur != w.last {
		w.last, w.changed = cur, elapsed
		return false, false
	}
	frozen := elapsed - w.changed
	return frozen >= w.timeout, frozen >= 2*w.timeout
}

// abandonedRuns counts run goroutines abandoned after hard stalls,
// process-wide. It only ever grows: an abandoned goroutine is never
// reclaimed, so the count is the process's leaked-goroutine debt.
var abandonedRuns atomic.Int64

// Logf emits the abandonment log line. Swappable so tests and the daemon
// can capture it; defaults to the standard logger.
var Logf = log.Printf

// NoteAbandoned records one abandoned run goroutine and logs it with the
// caller's description of what was abandoned. Returns the new total.
func NoteAbandoned(what string) int64 {
	n := abandonedRuns.Add(1)
	Logf("watchdog: abandoning wedged run goroutine (%s); %d abandoned in this process", what, n)
	return n
}

// Abandoned returns the number of run goroutines abandoned so far in
// this process.
func Abandoned() int64 { return abandonedRuns.Load() }
