package experiments

// Durable sweep cells: the experiments-layer half of checkpoint/restore.
//
// A sweep cell (one ResilientRun of a Cell) becomes durable when
// RunOpts.Checkpoint names a directory. The cell then runs
// through the internal/run driver, which snapshots it at a wall-clock
// cadence, on drain and on stall, to <dir>/cells/<key>.ckpt (with its
// probe's state, when it has one), where <key> is a hash of the cell's
// canonical RunSpec. When the cell finishes, its
// metrics (and, for a figure that reads the live engine, its record) land
// in <key>.done and the snapshot is deleted. A later
// invocation with Resume set short-circuits finished cells from their
// .done record and continues interrupted cells from their .ckpt —
// bit-identical to a run that was never interrupted (the fence in
// engine/checkpoint_test.go and the kill-and-resume CI job both enforce
// that). Every cell can be snapshotted, whatever its policy.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/run"
	"chrono/internal/workload"
)

// CheckpointOpts configure durable sweep cells (RunOpts.Checkpoint).
type CheckpointOpts struct {
	// Dir is the checkpoint directory; cell state lives under Dir/cells.
	// Empty disables checkpointing entirely.
	Dir string
	// Resume makes cells consult Dir before running: finished cells are
	// short-circuited from their .done record, interrupted cells continue
	// from their snapshot. Without Resume the directory is write-only.
	Resume bool
	// Interval is the wall-clock cadence of periodic snapshots
	// (default 30s).
	Interval time.Duration
	// StallTimeout is how long a cell may make no sim-time progress
	// before the watchdog checkpoints and aborts it (0 disables the
	// watchdog).
	StallTimeout time.Duration
}

// cellCheckpoint is the .ckpt payload: the spec pins what the snapshot
// belongs to, the state is the full engine capture, and the probe field
// holds the cell's probe state.
type cellCheckpoint = run.Checkpoint[RunSpec]

// cellDone is the .done payload for a finished cell. Record is the
// cell's record when it reads the live engine (see runCells).
type cellDone struct {
	Spec    RunSpec             `json:"spec"`
	Metrics engine.MetricsState `json:"metrics"`
	Record  json.RawMessage     `json:"record,omitempty"`
}

// specFor builds the canonical identity of a sweep cell. It must be
// computed from the *fresh* (pre-Build) workload so the key is identical
// across processes and attempts. Workers, an execution-strategy knob, is
// deliberately absent: it never affects results, so a sweep checkpointed
// under one worker count resumes cleanly under another.
func specFor(c Cell, w workload.Workload, o RunOpts) RunSpec {
	spec := RunSpec{
		Experiment: c.Experiment,
		Policy:     c.Policy,
		Workload:   w.Name(),
		Detail:     fmt.Sprintf("%+v", w),
		Seed:       o.Seed,
		DurationS:  o.Duration.Seconds(),
		FastGB:     o.FastGB,
		SlowGB:     o.SlowGB,
		Faults:     o.Faults,
		Param:      c.Param,
	}
	if o.PagesPerGB != defaultPagesPerGB {
		spec.PagesPerGB = o.PagesPerGB
	}
	return spec
}

// cellKey is the file-name identity of a cell: a short hash of the
// canonical spec JSON. Any change to seed, duration, tier sizes, memory
// scale, fault plan, workload parameters, or policy changes the key, so
// stale state is never silently reused for a different configuration.
func cellKey(spec RunSpec) string {
	raw, err := json.Marshal(spec)
	if err != nil {
		// RunSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("experiments: marshal RunSpec: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// durableCell is the checkpointing identity of one sweep cell.
type durableCell struct {
	spec RunSpec
	opts CheckpointOpts
	key  string
}

// newDurableCell returns nil when checkpointing is disabled.
func newDurableCell(spec RunSpec, o RunOpts) *durableCell {
	if o.Checkpoint == nil || o.Checkpoint.Dir == "" {
		return nil
	}
	return &durableCell{spec: spec, opts: *o.Checkpoint, key: cellKey(spec)}
}

func (dc *durableCell) cellDir() string  { return filepath.Join(dc.opts.Dir, "cells") }
func (dc *durableCell) ckptPath() string { return filepath.Join(dc.cellDir(), dc.key+".ckpt") }
func (dc *durableCell) donePath() string { return filepath.Join(dc.cellDir(), dc.key+".done") }

// resumePath is the snapshot a run continues from: the .ckpt under
// Resume, none otherwise (without Resume the directory is write-only).
func (dc *durableCell) resumePath() string {
	if !dc.opts.Resume {
		return ""
	}
	return dc.ckptPath()
}

// finished short-circuits a cell whose .done record exists: the returned
// Result carries the recorded metrics and no engine (as after Compact);
// restore, when set, reads back the recorded record.
func (dc *durableCell) finished(w workload.Workload, restore func(json.RawMessage) error) (*Result, bool, error) {
	if !dc.opts.Resume {
		return nil, false, nil
	}
	var done cellDone
	err := checkpoint.Load(dc.donePath(), &done)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return nil, false, nil
	case errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrVersion):
		// Unreadable record: drop it and re-run the cell.
		_ = os.Remove(dc.donePath())
		return nil, false, nil
	default:
		return nil, false, err
	}
	if err := dc.checkSpec(done.Spec, dc.donePath()); err != nil {
		return nil, false, err
	}
	m, err := done.Metrics.Materialize()
	if err == nil && restore != nil {
		err = restore(done.Record)
	}
	if err != nil {
		_ = os.Remove(dc.donePath())
		return nil, false, nil
	}
	return &Result{Policy: dc.spec.Policy, Metrics: m, Workload: w}, true, nil
}

// checkSpec guards against key collisions and hand-edited state: a file
// recorded for a different configuration is an error, never a resume.
func (dc *durableCell) checkSpec(got RunSpec, path string) error {
	want, _ := json.Marshal(dc.spec)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		return fmt.Errorf("experiments: %s was recorded for a different run configuration (recorded %s, want %s); "+
			"remove the checkpoint directory or rerun with the original flags", path, have, want)
	}
	return nil
}

// checkCkpt vets a loaded .ckpt before it is restored.
func (dc *durableCell) checkCkpt(ck *cellCheckpoint) error {
	return dc.checkSpec(ck.Spec, dc.ckptPath())
}

// markDone records the finished cell's metrics and record (nil when the
// figure needs none) and drops its snapshot. Best-effort: a write or
// encode failure costs a future short-circuit, not the already-computed
// result.
func (dc *durableCell) markDone(m *engine.Metrics, rec any) {
	if err := os.MkdirAll(dc.cellDir(), 0o755); err != nil {
		return
	}
	done := cellDone{Spec: dc.spec, Metrics: m.State()}
	if rec != nil {
		raw, err := json.Marshal(rec)
		if err != nil {
			return
		}
		done.Record = raw
	}
	if err := checkpoint.Save(dc.donePath(), done); err != nil {
		return
	}
	_ = os.Remove(dc.ckptPath())
}

// save snapshots e, and p's state when the cell has a probe.
func (dc *durableCell) save(e *engine.Engine, p probe) error {
	ck := cellCheckpoint{Spec: dc.spec}
	if p != nil {
		raw, err := json.Marshal(p)
		if err != nil {
			return err
		}
		ck.Probe = raw
	}
	return run.Save(dc.ckptPath(), e, ck)
}

// run executes one durable attempt on e, sampled by p (nil without a
// probe), through the run driver and settles the outcome. Exactly one of
// the two returns is non-nil.
func (dc *durableCell) run(e *engine.Engine, p probe, resumed bool, o RunOpts) (*engine.Metrics, *FailedRun) {
	res := run.Exec(run.Segment{
		Engine:       e,
		Resumed:      resumed,
		Duration:     o.Duration,
		Ctx:          o.ctx(),
		Interval:     dc.opts.Interval,
		StallTimeout: dc.opts.StallTimeout,
		Save:         func() error { return dc.save(e, p) },
		Name: fmt.Sprintf("cell %s policy=%s workload=%s seed=%d",
			dc.spec.Experiment, dc.spec.Policy, dc.spec.Workload, dc.spec.Seed),
	})
	if res.Outcome == run.Finished {
		return res.Metrics, nil
	}
	f := &FailedRun{
		Spec:               dc.spec,
		PanicValue:         res.Reason,
		EventsFired:        res.Fired,
		Stalled:            res.Outcome == run.Stalled || res.Outcome == run.HardStalled,
		Interrupted:        res.Outcome == run.Interrupted,
		AbandonedGoroutine: res.Outcome == run.HardStalled,
	}
	if res.Outcome == run.Panicked {
		f.PanicValue, f.Stack = fmt.Sprint(res.Panic), res.Stack
	}
	if res.Saved {
		f.ResumeCkpt = dc.ckptPath()
	}
	return nil, f
}
