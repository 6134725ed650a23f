package daemon

// Per-run execution. Each admitted run gets a driver goroutine that
// executes the simulation in *segments*: a segment is one engine build
// (plus optional restore) followed by Run/ResumeRun until the horizon,
// a control event, or a failure ends it. Live reconfiguration ends a
// segment at the next epoch boundary with an in-memory snapshot; the
// next segment restores that snapshot into the new policy
// (engine.RestoreSwap) or rolls back to the old one when validation
// fails — the run itself survives either way.
//
// Each segment executes through the internal/run driver, which confines
// panics to the run, checkpoints periodically and on drain (so kill -9
// at any moment loses at most one checkpoint interval), and fails or
// abandons a stalled run. This file adds what only chronod needs: the
// control requests serviced between events and the swap handoff.

import (
	"context"
	"fmt"
	"os"
	"sort"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/report"
	simrun "chrono/internal/run"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// Test seams. testBuildHook runs after every engine build and before
// any restore — tests install keyed pacing tickers there so a run stays
// in flight long enough to poke at. testStartGate, when non-nil, holds
// every driver before its first segment so admission tests can fill the
// queue deterministically.
var (
	testBuildHook func(e *engine.Engine)
	testStartGate chan struct{}
)

// ctrlMsg travels from the API surface into the AfterStep hook.
type ctrlMsg struct {
	op     string // OpPause | OpReconfigure | OpDump
	policy string
	set    map[string]string
	reply  chan ctrlReply
}

type ctrlReply struct {
	err     error
	table   string
	dropped int
}

// swapReq is the handoff of a segment stopped for a reconfiguration:
// the request and the epoch-boundary snapshot taken for it.
type swapReq struct {
	msg  *ctrlMsg
	snap *engine.EngineState
}

// drive owns one run from scheduling to a terminal state.
func (d *Daemon) drive(r *run) {
	// Release any control caller still waiting once the run settles.
	// Only THIS driver's context is cancelled — the pause path swaps in
	// a fresh one (under the same lock that publishes the paused state,
	// so a racing Resume can never pick up a doomed context), and
	// cancelling the old one must only wake waiters, never poison the
	// next segment.
	r.mu.Lock()
	myCancel := r.cancel
	r.mu.Unlock()
	defer myCancel()
	defer r.persist()
	defer d.drainCtrl(r)

	if g := testStartGate; g != nil {
		select {
		case <-g:
		case <-r.context().Done():
			d.settleInterrupt(r)
			return
		}
	}

	e, w, resumed, err := d.open(r)
	if err != nil {
		d.settleFail(r, err.Error(), false)
		return
	}

	for {
		out, swap := d.execute(r, e, w, resumed)
		switch out.Outcome {
		case simrun.Finished:
			d.settleDone(r, e, w, out.Metrics)
			return
		case simrun.Panicked:
			d.settleFail(r, fmt.Sprintf("panic: %v\n%s", out.Panic, out.Stack), false)
			return
		case simrun.Stalled, simrun.HardStalled:
			d.settleFail(r, out.Reason, out.Outcome == simrun.HardStalled)
			return
		case simrun.Interrupted: // user cancel or daemon drain
			d.settleInterrupt(r)
			return
		case simrun.Stopped:
			if swap == nil {
				// Paused. Fresh context and paused state become visible
				// atomically: a Resume that sees "paused" is guaranteed
				// the new context.
				r.mu.Lock()
				r.ctx, r.cancel = context.WithCancel(d.ctx)
				r.state = StatePaused
				r.mu.Unlock()
				d.logf("chronod: run %s paused at %.1fs virtual", r.id, simclock.Duration(r.simNow.Load()).Seconds())
				return
			}
			e, w = d.applySwap(r, swap)
			if e == nil {
				// Rollback itself failed; the run is unrecoverable.
				return
			}
			resumed = true
		}
	}
}

// build makes a fresh engine for the run under polName.
func (d *Daemon) build(r *run, polName string) (*engine.Engine, workload.Workload, error) {
	e, w, err := r.spec.Build(polName)
	if err != nil {
		return nil, nil, err
	}
	if h := testBuildHook; h != nil {
		h(e)
	}
	return e, w, nil
}

// open builds the engine of the run's first segment, continuing from
// engine.ckpt when the run has one; resumed reports which.
func (d *Daemon) open(r *run) (e *engine.Engine, w workload.Workload, resumed bool, err error) {
	r.mu.Lock()
	pol := r.policy
	r.mu.Unlock()
	e, ck, stale, err := simrun.Open(r.ckptPath(), nil, func(ck *runCheckpoint) (*engine.Engine, error) {
		p := pol
		if ck != nil {
			// The snapshot may have been taken under a later policy (a
			// live swap before the crash); rebuild under that policy.
			p = ck.Policy
		}
		var berr error
		e, w, berr = d.build(r, p)
		return e, berr
	})
	if stale != nil {
		d.logf("chronod: run %s %v; replaying from start", r.id, stale)
	}
	if err != nil {
		return nil, nil, false, err
	}
	if ck != nil {
		r.mu.Lock()
		r.policy = ck.Policy
		r.mu.Unlock()
	}
	return e, w, ck != nil, nil
}

// restore builds the run under polName and overlays an in-memory
// snapshot (live reconfiguration; swap selects RestoreSwap vs Restore).
// dropped reports clock events a cross-policy restore could not carry
// over; the caller charges it to the run only once the whole swap
// (including its sysctl stage) has succeeded.
func (d *Daemon) restore(r *run, polName string, snap *engine.EngineState, swap bool) (_ *engine.Engine, _ workload.Workload, dropped int, _ error) {
	e, w, err := d.build(r, polName)
	if err != nil {
		return nil, nil, 0, err
	}
	if swap {
		dropped, err = e.RestoreSwap(snap)
	} else {
		err = e.Restore(snap)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return e, w, dropped, nil
}

// nextEpoch is the first engine epoch boundary strictly after now — where
// a live reconfiguration takes effect.
func nextEpoch(now simclock.Time) simclock.Time {
	return simclock.Time((int64(now)/int64(engine.EpochNS) + 1) * int64(engine.EpochNS))
}

// execute runs one segment to its end through the run driver. The
// driver owns periodic checkpoints, drain, the stall watchdog and panic
// confinement; the per-event boundary callback here services control
// requests and takes the epoch-boundary snapshot of a pending swap. A
// segment Stopped by the callback is a pause when swap is nil.
func (d *Daemon) execute(r *run, e *engine.Engine, w workload.Workload, resumed bool) (_ simrun.Result, swap *swapReq) {
	cfg := d.Config()

	r.mu.Lock()
	polName := r.policy
	r.mu.Unlock()

	var (
		paused  bool
		swapMsg *ctrlMsg
		swapAt  simclock.Time
	)
	boundary := func(now simclock.Time) bool {
		// Service control requests. One swap may be pending at a time;
		// everything else answers immediately.
		for more := true; more; {
			select {
			case msg := <-r.ctrl:
				switch msg.op {
				case OpDump:
					msg.reply <- ctrlReply{table: renderLiveTable(r, polName, w, e, now)}
				case OpPause:
					if err := r.save(e, polName); err != nil {
						msg.reply <- ctrlReply{err: fmt.Errorf("daemon: cannot pause: %w", err)}
						break
					}
					paused = true
					msg.reply <- ctrlReply{}
				case OpReconfigure:
					if err := validateSwap(e, polName, msg); err != nil {
						msg.reply <- ctrlReply{err: err}
						break
					}
					if swapMsg != nil {
						msg.reply <- ctrlReply{err: fmt.Errorf("daemon: a reconfiguration is already pending")}
						break
					}
					swapMsg = msg
					swapAt = nextEpoch(now)
					// The reply waits until the swap applies or rolls back.
				default:
					msg.reply <- ctrlReply{err: fmt.Errorf("daemon: unknown control op %q", msg.op)}
				}
			default:
				more = false
			}
		}
		if swapMsg != nil && now >= swapAt {
			st, err := e.Snapshot()
			if err != nil {
				swapMsg.reply <- ctrlReply{err: fmt.Errorf("daemon: cannot reconfigure: %w", err)}
				swapMsg = nil
			} else {
				swap = &swapReq{msg: swapMsg, snap: st}
				return true
			}
		}
		return paused
	}

	out := simrun.Exec(simrun.Segment{
		Engine:       e,
		Resumed:      resumed,
		Duration:     simclock.FromSeconds(r.spec.DurationS),
		Ctx:          r.context(),
		Interval:     cfg.checkpointInterval(),
		StallTimeout: cfg.stallTimeout(),
		Save:         func() error { return r.save(e, polName) },
		Boundary:     boundary,
		Progress:     &r.simNow,
		Name: fmt.Sprintf("daemon run %s policy=%s workload=%s seed=%d",
			r.id, polName, r.spec.Workload, r.spec.Seed),
	})
	if out.Outcome != simrun.Stopped {
		// swap belongs to the run goroutine, which an abandoned run
		// still owns; only a Stopped segment hands it over.
		return out, nil
	}
	return out, swap
}

// validateSwap pre-flights a reconfiguration before anything stops: the
// policy must exist and be instantiable, and — for a knob-only swap —
// every sysctl key must be known, so a typo costs an error reply with
// the table's "did you mean" list, not a run interruption. Keys of a
// cross-policy swap can only be checked against the *new* policy's
// table, so they validate after the restore; a failure there rolls the
// whole swap back.
func validateSwap(e *engine.Engine, current string, msg *ctrlMsg) error {
	pol := msg.policy
	if pol == "" {
		pol = current
	}
	if _, err := experiments.NewPolicy(pol); err != nil {
		return err
	}
	if pol == current {
		for _, k := range sortedKeys(msg.set) {
			if _, err := e.Sysctl().Get(k); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// applySwap performs the restore-into-new-policy handoff:
// snapshot (already taken at the epoch boundary) → build a fresh engine
// under the new policy → RestoreSwap (or Restore for a knob-only swap)
// → apply the sysctl assignments. Any failure rolls back: the old
// policy is rebuilt from the same snapshot and the run continues as if
// the request never happened. The reply to the waiting client is sent
// from here either way.
func (d *Daemon) applySwap(r *run, swap *swapReq) (*engine.Engine, workload.Workload) {
	msg, snap := swap.msg, swap.snap
	r.mu.Lock()
	oldPol := r.policy
	r.mu.Unlock()
	newPol := msg.policy
	if newPol == "" {
		newPol = oldPol
	}
	cross := newPol != oldPol

	e, w, dropped, err := d.restore(r, newPol, snap, cross)
	if err == nil {
		err = applySets(e, msg.set)
	}
	if err != nil {
		// Roll back onto the old policy from the same snapshot. The
		// snapshot was taken under oldPol, so a plain Restore applies.
		re, rw, _, rerr := d.restore(r, oldPol, snap, false)
		if rerr != nil {
			msg.reply <- ctrlReply{err: fmt.Errorf("daemon: swap failed (%v) and rollback failed (%v)", err, rerr)}
			d.settleFail(r, fmt.Sprintf("reconfiguration rollback failed: %v", rerr), false)
			return nil, nil
		}
		msg.reply <- ctrlReply{err: fmt.Errorf("daemon: reconfiguration rejected, run continues under %s: %w", oldPol, err)}
		d.logf("chronod: run %s reconfiguration rejected (%v); rolled back to %s", r.id, err, oldPol)
		return re, rw
	}

	r.mu.Lock()
	r.policy = newPol
	r.swaps++
	r.dropped += dropped
	r.mu.Unlock()
	r.persist()
	// Checkpoint immediately so a crash right after the swap resumes
	// into the new configuration, not the old one.
	if err := r.save(e, newPol); err != nil {
		d.logf("chronod: run %s post-swap checkpoint failed: %v", r.id, err)
	}
	msg.reply <- ctrlReply{dropped: dropped}
	d.logf("chronod: run %s reconfigured %s -> %s at %.1fs virtual (%d events dropped)",
		r.id, oldPol, newPol, simclock.Duration(r.simNow.Load()).Seconds(), dropped)
	return e, w
}

// applySets applies sysctl assignments in sorted key order —
// deterministic, and validation errors (range checks) surface the first
// offending key.
func applySets(e *engine.Engine, set map[string]string) error {
	for _, k := range sortedKeys(set) {
		if err := e.Sysctl().Set(k, set[k]); err != nil {
			return err
		}
	}
	return nil
}

// drainCtrl answers any control requests that raced with the run's end.
func (d *Daemon) drainCtrl(r *run) {
	for {
		select {
		case msg := <-r.ctrl:
			msg.reply <- ctrlReply{err: fmt.Errorf("daemon: run %s is no longer running", r.id)}
		default:
			return
		}
	}
}

// Terminal-state settlement. Each persists the record; settleDone also
// renders the final metrics table and clears the snapshot.

func (d *Daemon) settleDone(r *run, e *engine.Engine, w workload.Workload, m *engine.Metrics) {
	r.mu.Lock()
	pol := r.policy
	r.mu.Unlock()
	// The table lands on disk before the state flips: a Status that sees
	// "done" is guaranteed to find the final table. It is chronosim's
	// summary, rendered the same whether the run was interrupted and
	// resumed or ran straight through: the crash-recovery fence diffs it.
	table := experiments.SummaryTable(experiments.NewResult(pol, e, w, m), r.spec.DurationS).String()
	_ = checkpoint.WriteFileAtomic(r.tablePath(), []byte(table))
	_ = os.Remove(r.ckptPath())
	r.setState(StateDone)
	r.persist()
	d.logf("chronod: run %s done (%s on %s)", r.id, pol, r.spec.Workload)
}

func (d *Daemon) settleFail(r *run, errMsg string, abandoned bool) {
	r.mu.Lock()
	r.state = StateFailed
	r.errMsg = errMsg
	r.abandonedG = abandoned
	r.mu.Unlock()
	r.persist()
	d.logf("chronod: run %s failed: %s", r.id, firstLine(errMsg))
}

func (d *Daemon) settleInterrupt(r *run) {
	r.mu.Lock()
	cancelled := r.userCancel
	if cancelled {
		r.state = StateCancelled
	} else {
		r.state = StateInterrupted
	}
	r.mu.Unlock()
	r.persist()
	if cancelled {
		d.logf("chronod: run %s cancelled", r.id)
	} else {
		d.logf("chronod: run %s interrupted; will auto-resume on restart", r.id)
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// renderLiveTable is the memtierd-style mid-run dump: the same counters
// over the virtual time elapsed so far. It runs inside the AfterStep
// hook — the only context where reading the engine mid-run is safe.
func renderLiveTable(r *run, polName string, w workload.Workload, e *engine.Engine, now simclock.Time) string {
	st := e.M.State()
	m, err := st.Materialize()
	if err != nil {
		return fmt.Sprintf("daemon: metrics unavailable: %v\n", err)
	}
	if m.Duration == 0 {
		m.Duration = now // rates are "so far", not end-of-run
	}
	t := report.NewTable(fmt.Sprintf("%s: %s on %s at %.1fs virtual (live)",
		r.id, polName, w.Name(), simclock.Duration(now).Seconds()), "Metric", "Value")
	experiments.MetricRows(t, m)
	return t.String()
}
