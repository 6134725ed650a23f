// Package run is the one way to execute a durable simulation: durable
// sweep cells (internal/experiments, `reproduce -checkpoint-dir`) and
// chronod runs (internal/daemon) both execute an engine through Exec
// and continue an interrupted run through Open.
//
// Exec runs the engine in a goroutine that confines panics. Between two
// events its clock AfterStep hook publishes the virtual-time watermark
// the stall watchdog (internal/watchdog) reads, calls the caller's
// Boundary callback (chronod services pause, dump and reconfigure
// there), saves a snapshot on a wall-clock cadence, and saves then stops
// on drain (context cancelled) or soft stall. A run wedged inside one
// event never reaches the hook: after twice the stall timeout Exec
// abandons its goroutine, which parks at the next event boundary if one
// ever comes. Open restores a snapshot written by Save onto a fresh
// build, and replays from scratch when the snapshot cannot be restored;
// determinism makes both reach the same end state.
//
// Every run can be snapshotted: every clock event is keyed and every
// policy carries checkpoint state. A save that fails anyway (an I/O
// error) leaves the run going; a periodic save is retried at the next
// interval.
//
// Wall-clock time in this package is host-side only (checkpoint
// cadence, stall detection) and never feeds simulation state.
package run

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/watchdog"
)

// Checkpoint is the on-disk snapshot of a run: the engine state plus
// the caller's identity for the run. Policy records the policy the
// snapshot was taken under when it can differ from the one in Spec
// (chronod's live reconfiguration); sweep cells leave it empty. Probe
// is the state of a sweep cell's sampler, taken at the same event
// boundary as State; it is absent for every other run.
type Checkpoint[S any] struct {
	Spec   S                   `json:"spec"`
	Policy string              `json:"policy,omitempty"`
	State  *engine.EngineState `json:"state"`
	Probe  json.RawMessage     `json:"probe,omitempty"`
}

// ErrStale marks a snapshot that exists but cannot be restored: a
// corrupt envelope, an incompatible version, an empty state, or state
// that does not overlay a fresh build.
var ErrStale = errors.New("run: snapshot not restorable")

// Save snapshots e into ck and writes ck to path atomically.
func Save[S any](path string, e *engine.Engine, ck Checkpoint[S]) error {
	st, err := e.Snapshot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	ck.State = st
	return checkpoint.Save(path, ck)
}

// Open builds the engine a run continues on. When path names a
// snapshot, check vets it (an error from check is returned as is: a
// snapshot recorded for another run must never resume it) and build
// makes the engine the snapshot is restored onto; ck is the loaded
// snapshot. Without a snapshot (path empty or no file) build(nil)
// makes a fresh engine and ck is nil.
//
// A snapshot that cannot be restored is deleted and the run replays
// from scratch on build(nil); stale then wraps ErrStale with the cause.
// build(ck) rejects a snapshot the same way by returning an error that
// wraps ErrStale (a sweep cell's probe state that does not decode).
func Open[S any](path string, check func(*Checkpoint[S]) error,
	build func(*Checkpoint[S]) (*engine.Engine, error)) (e *engine.Engine, ck *Checkpoint[S], stale, err error) {
	ck, err = load(path, check)
	if errors.Is(err, ErrStale) {
		stale, err = err, nil
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if ck == nil {
		e, err = build(nil)
		return e, nil, stale, err
	}
	e, err = build(ck)
	if err == nil {
		if rerr := e.Restore(ck.State); rerr != nil {
			err = fmt.Errorf("%w: %v", ErrStale, rerr)
		}
	}
	if errors.Is(err, ErrStale) {
		_ = os.Remove(path)
		stale = err
		e, err = build(nil)
		return e, nil, stale, err
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return e, ck, nil, nil
}

// load reads and vets the snapshot at path: nil when there is none, an
// ErrStale error (after deleting the file) when it is unusable.
func load[S any](path string, check func(*Checkpoint[S]) error) (*Checkpoint[S], error) {
	if path == "" {
		return nil, nil
	}
	var ck Checkpoint[S]
	err := checkpoint.Load(path, &ck)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return nil, nil
	case errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrVersion):
		_ = os.Remove(path)
		return nil, fmt.Errorf("%w: %v", ErrStale, err)
	default:
		return nil, err
	}
	if check != nil {
		if err := check(&ck); err != nil {
			return nil, err
		}
	}
	if ck.State == nil {
		_ = os.Remove(path)
		return nil, fmt.Errorf("%w: empty snapshot", ErrStale)
	}
	return &ck, nil
}

// StallTestHook, when non-nil, substitutes the virtual-time watermark
// the watchdog observes. Tests freeze it to exercise the stall path
// without building a genuinely wedged simulation.
var StallTestHook func(simclock.Time) simclock.Time

// Segment is one execution of an engine, from Run (or ResumeRun) until
// the horizon, a stop, or a failure.
type Segment struct {
	Engine *engine.Engine
	// Resumed continues a restored engine with ResumeRun; otherwise the
	// engine runs for Duration.
	Resumed  bool
	Duration simclock.Duration
	// Ctx cancelled drains the run: save, then stop (Interrupted).
	Ctx context.Context
	// Interval is the wall-clock cadence of periodic saves (0: none).
	Interval time.Duration
	// StallTimeout arms the watchdog (0: disabled).
	StallTimeout time.Duration
	// Save writes a snapshot of Engine to disk. It is called between
	// events: periodically, on drain and on a soft stall.
	Save func() error
	// Boundary, when set, is called between events before anything
	// else; returning true stops the run (Stopped).
	Boundary func(now simclock.Time) bool
	// Progress receives the virtual-time watermark; nil keeps it
	// private.
	Progress *atomic.Int64
	// Name identifies the run in the abandonment log line.
	Name string
}

// Outcome classifies how a segment ended.
type Outcome int

const (
	Finished    Outcome = iota // reached the horizon; Result.Metrics is set
	Stopped                    // Boundary asked to stop
	Panicked                   // the engine panicked; Result.Panic and Stack are set
	Interrupted                // Ctx was cancelled
	Stalled                    // no virtual-time progress for StallTimeout
	HardStalled                // stuck inside one event for 2×StallTimeout; goroutine abandoned
)

// Result is the settled outcome of Exec.
type Result struct {
	Outcome Outcome
	Metrics *engine.Metrics
	Panic   any
	Stack   string
	// Reason describes a stall or an interruption for failure records.
	Reason string
	// Fired is the clock-event watermark when the segment ended.
	Fired uint64
	// Saved reports that a snapshot of this run is on disk: the segment
	// resumed from one or Save succeeded at least once.
	Saved bool
}

type runOut struct {
	m     *engine.Metrics
	panic any
	stack []byte
}

// Exec runs the segment to its end and classifies the outcome.
func Exec(s Segment) Result {
	e := s.Engine
	clock := e.Clock()
	progress := s.Progress
	if progress == nil {
		progress = new(atomic.Int64)
	}
	progress.Store(int64(clock.Now()))

	var (
		saved       atomic.Bool   // read by the hard-stall arm while the hook may still save
		fired       atomic.Uint64 // event watermark, race-free for the driver
		stallReq    atomic.Bool   // watchdog → hook: save and stop now
		abandoned   atomic.Bool   // driver → leaked hook: stop, touch nothing
		stopped     bool
		interrupted bool
		stalled     bool
	)
	saved.Store(s.Resumed)
	save := func() {
		if s.Save() == nil {
			saved.Store(true)
		}
	}
	lastSave := time.Now() //chrono:wallclock checkpoint cadence is host-side
	clock.SetAfterStep(func() {
		if abandoned.Load() {
			clock.Stop()
			return
		}
		now := clock.Now()
		fired.Store(clock.Fired())
		if h := StallTestHook; h != nil {
			progress.Store(int64(h(now)))
		} else {
			progress.Store(int64(now))
		}
		if s.Boundary != nil && s.Boundary(now) {
			stopped = true
			clock.Stop()
			return
		}
		switch {
		case s.Ctx.Err() != nil:
			save() // best-effort resume point
			interrupted = true
			clock.Stop()
		case stallReq.Load():
			save()
			stalled = true
			clock.Stop()
		case s.Interval > 0:
			//chrono:wallclock checkpoint cadence is host-side
			if time.Since(lastSave) >= s.Interval {
				save()
				lastSave = time.Now() //chrono:wallclock checkpoint cadence is host-side
			}
		}
	})
	// The hook is cleared only when the run goroutine returns. An
	// abandoned run keeps it: the hook is what parks the leaked goroutine.

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	var hardStall chan struct{}
	if s.StallTimeout > 0 {
		hardStall = make(chan struct{})
		go watchdog.Watch(s.StallTimeout, progress, &stallReq, hardStall, stopWatch)
	}

	// out is buffered so an abandoned goroutine can still deliver and
	// exit; done closes after the delivery. The result is received after
	// the select, not in a case, so it does not depend on which case won.
	out := make(chan runOut, 1)
	done := make(chan struct{})
	//chrono:allow goroscope deliberately abandonable: a hard-stalled run goroutine is parked by the AfterStep hook and its engine discarded (see the hardStall arm below)
	go func() {
		defer close(done)
		defer func() {
			if v := recover(); v != nil {
				out <- runOut{panic: v, stack: debug.Stack()}
			}
		}()
		if s.Resumed {
			out <- runOut{m: e.ResumeRun()}
		} else {
			out <- runOut{m: e.Run(s.Duration)}
		}
	}()

	select {
	case <-done:
	case <-hardStall:
		// Wedged inside a single event: no hook, no snapshot, no way to
		// preempt. Abandon the goroutine and report from the last
		// snapshot; the leak is counted and logged so long-lived
		// processes can see the debt accumulate.
		abandoned.Store(true)
		watchdog.NoteAbandoned(s.Name)
		return Result{
			Outcome: HardStalled,
			Reason: fmt.Sprintf("stalled hard: no sim-time progress for %v and the event handler never yielded",
				2*s.StallTimeout),
			Fired: fired.Load(),
			Saved: saved.Load(),
		}
	}
	o := <-out
	clock.SetAfterStep(nil)
	res := Result{Fired: fired.Load(), Saved: saved.Load()}
	switch {
	case o.panic != nil:
		res.Outcome, res.Panic, res.Stack = Panicked, o.panic, string(o.stack)
	case stopped:
		res.Outcome = Stopped
	case interrupted:
		res.Outcome, res.Reason = Interrupted, "interrupted: graceful shutdown requested"
	case stalled:
		res.Outcome = Stalled
		res.Reason = fmt.Sprintf("stalled: no sim-time progress for %v", s.StallTimeout)
	default:
		res.Outcome, res.Metrics = Finished, o.m
	}
	return res
}
