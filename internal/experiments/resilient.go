package experiments

import (
	"fmt"
	"runtime/debug"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/run"
	"chrono/internal/units"
)

// Crash-resilient run wrapper: a sweep cell that panics — a policy bug, an
// engine invariant trip under -tags simdebug, an injected-fault corner case —
// must not take the other cells of a multi-hour sweep down with it. Each
// attempt executes under recover; a crash is captured as a self-contained
// repro bundle (FailedRun) and the cell is retried a bounded number of
// times before the sweep records it in its failure manifest and moves on.

// RunSpec identifies one simulation run precisely enough to replay it:
// feed the same fields back through ResilientRun (or `reproduce -faults`)
// and the deterministic engine reproduces the crash bit-for-bit.
type RunSpec struct {
	// Experiment labels the sweep cell, e.g. "pmbench/64GB/rw=50:50".
	Experiment string `json:"experiment"`
	// Policy is the registry name passed to NewPolicy.
	Policy string `json:"policy"`
	// Workload is the workload's name; Detail carries its full parameter
	// struct for human inspection.
	Workload string `json:"workload"`
	Detail   string `json:"detail,omitempty"`
	// Seed plus Faults pin every RNG stream of the run.
	Seed      uint64           `json:"seed"`
	DurationS float64          `json:"duration_s"`
	FastGB    units.GB         `json:"fast_gb"`
	SlowGB    units.GB         `json:"slow_gb"`
	Faults    faultinject.Plan `json:"faults"`
	// Param is the scaled Chrono parameter of a sensitivity cell; absent
	// otherwise, so other cells keep the keys they had before it existed.
	Param *Param `json:"param,omitempty"`
	// PagesPerGB is the memory scale when it is not the default, which
	// is absent for the same reason.
	PagesPerGB int64 `json:"pages_per_gb,omitempty"`
}

// FailedRun is the repro bundle for one sweep cell that did not finish:
// the spec to replay it, what stopped it (a panic, the stall watchdog, or
// a graceful shutdown), and how far the simulation got.
type FailedRun struct {
	Spec RunSpec `json:"spec"`
	// Attempts is how many times the run was tried (1 + retries).
	Attempts int `json:"attempts"`
	// PanicValue is the panic value of the last attempt, stringified —
	// or, for stalled/interrupted cells, the human-readable reason.
	PanicValue string `json:"panic"`
	// Stack is the goroutine stack at the last recovery point.
	Stack string `json:"stack,omitempty"`
	// EventsFired is the simulator-event watermark at the crash: the
	// number of clock events the deterministic engine had dispatched.
	// Replaying the spec and breaking at this count lands a debugger on
	// the faulting event.
	EventsFired uint64 `json:"events_fired"`
	// Stalled marks a cell the watchdog aborted because its sim time made
	// no progress over the configured wall-clock window.
	Stalled bool `json:"stalled,omitempty"`
	// Interrupted marks a cell drained by a graceful shutdown (cancelled
	// RunOpts.Ctx); it is not a failure and is not retried.
	Interrupted bool `json:"interrupted,omitempty"`
	// ResumeCkpt is the path of the cell's latest engine snapshot, when
	// one exists: rerunning the sweep with CheckpointOpts.Resume (or
	// `reproduce -resume`) continues from exactly that point.
	ResumeCkpt string `json:"resume_ckpt,omitempty"`
	// AbandonedGoroutine marks a hard stall: the run goroutine was wedged
	// inside a single event and was abandoned (it leaks until process
	// exit). The process-wide total is watchdog.Abandoned().
	AbandonedGoroutine bool `json:"abandoned_goroutine,omitempty"`
}

func (f FailedRun) String() string {
	head := fmt.Sprintf("%s policy=%s seed=%d faults=%q attempts=%d events=%d",
		f.Spec.Experiment, f.Spec.Policy, f.Spec.Seed, f.Spec.Faults.String(),
		f.Attempts, f.EventsFired)
	s := head + ": " + f.PanicValue
	if f.ResumeCkpt != "" {
		s += " (resume: " + f.ResumeCkpt + ")"
	}
	return s
}

// runAttempt is one guarded execution of a cell. It keeps the engine
// reachable from the deferred recover so a crash can record the
// event-count watermark.
func runAttempt(c Cell, o RunOpts) (res *Result, failed *FailedRun, err error) {
	// The spec is computed from the fresh (pre-Build) workload so the
	// durable-cell key is stable across attempts and processes.
	w := c.Workload()
	spec := specFor(c, w, o)
	dc := newDurableCell(spec, o)
	if dc != nil {
		done, ok, derr := dc.finished(w, c.restore)
		if derr != nil {
			return nil, nil, derr
		}
		if ok {
			return done, nil, nil
		}
	}
	var e *engine.Engine
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, nil
			failed = &FailedRun{Spec: spec, PanicValue: fmt.Sprint(v), Stack: string(debug.Stack())}
			if e != nil {
				failed.EventsFired = e.Clock().Fired()
			}
		}
	}()
	built := false
	var p probe
	build := func(ck *cellCheckpoint) (*engine.Engine, error) {
		if built {
			w = c.Workload() // replaying a stale snapshot needs an unbuilt workload
		}
		built = true
		pol, perr := c.newPolicy(o)
		if perr != nil {
			return nil, perr
		}
		var berr error
		if e, berr = Build(pol, w, o); berr != nil || c.probe == nil {
			return e, berr
		}
		// The probe attaches before any restore, which needs its ticker
		// registered; attaching right after Build fixes its place in the
		// event order.
		p = c.probe()
		if ck != nil {
			if perr := decodeState(ck.Probe, p); perr != nil {
				return nil, fmt.Errorf("%w: probe: %v", run.ErrStale, perr)
			}
		}
		p.attach(e, w)
		return e, nil
	}
	var m *engine.Metrics
	if dc == nil {
		if _, err := build(nil); err != nil {
			return nil, nil, err
		}
		m = e.Run(o.Duration)
	} else {
		_, ck, _, oerr := run.Open(dc.resumePath(), dc.checkCkpt, build)
		if oerr != nil {
			return nil, nil, oerr
		}
		if m, failed = dc.run(e, p, ck != nil, o); failed != nil {
			return nil, failed, nil
		}
	}
	res = NewResult(c.Policy, e, w, m)
	res.probe = p
	var rec any
	if c.keep != nil {
		rec = c.keep(res)
	}
	if dc != nil {
		dc.markDone(m, rec)
	}
	return res, nil, nil
}

// ResilientRun executes one cell with crash capture and bounded retry.
//
// Exactly one of the three returns is meaningful: a *Result on success, a
// *FailedRun when every attempt panicked (the bundle describes the last
// attempt), or an error for deterministic configuration failures (unknown
// policy, workload build error) that no retry can fix.
func ResilientRun(c Cell, o RunOpts) (*Result, *FailedRun, error) {
	o = o.withDefaults()
	if c.Seed != 0 {
		o.Seed = c.Seed
	}
	attempts := 1 + o.Retries
	if attempts < 1 {
		attempts = 1
	}
	var last *FailedRun
	for a := 1; a <= attempts; a++ {
		res, failed, err := runAttempt(c, o)
		if err != nil {
			return nil, nil, err
		}
		if failed == nil {
			return res, nil, nil
		}
		failed.Attempts = a
		last = failed
		if failed.Interrupted || failed.Stalled {
			// A drained cell resumes on the next invocation; a stalled
			// cell is deterministic and would stall again. Neither is
			// worth a retry.
			return nil, last, nil
		}
		// The engine is deterministic, so a bare retry of the same spec
		// re-crashes; its value is confined to crashes from outside the
		// sim contract (resource exhaustion, a racing collector under
		// -race). Still bounded, still recorded if it keeps failing.
	}
	return nil, last, nil
}
