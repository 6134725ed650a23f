package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/run"
	"chrono/internal/simclock"
	"chrono/internal/watchdog"
	"chrono/internal/workload"
)

// The durable-cell integration fence. The engine-level bit-identity fence
// lives in engine/checkpoint_test.go; these tests cover the sweep layer:
// drain-and-resume through ResilientRun, finished-cell short-circuiting,
// stale-snapshot fallback, configuration-mismatch rejection, and the
// stall watchdog. An aggressive fault plan is active throughout, so the
// resume path is exercised with injector streams mid-flight.

func mkDurableWorkload() workload.Workload {
	return &workload.Pmbench{Processes: 2, WorkingSetGB: 1, ReadPct: 70, Stride: 2}
}

func durableOpts(dir string) RunOpts {
	return RunOpts{
		Seed: 7, FastGB: 1, SlowGB: 3, Duration: 60 * simclock.Second,
		Faults: faultinject.Aggressive(),
		// A huge interval keeps periodic saves out of these tests'
		// deterministic paths; drain/stall snapshots are explicit.
		Checkpoint: &CheckpointOpts{Dir: dir, Interval: time.Hour},
	}
}

func metricsJSON(t *testing.T, res *Result) string {
	t.Helper()
	if res == nil || res.Metrics == nil {
		t.Fatal("missing result metrics")
	}
	raw, err := json.Marshal(res.Metrics.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestDurableCellDrainResumesBitIdentical: a cell drained by a cancelled
// context leaves a resume snapshot; rerunning with Resume continues it to
// metrics byte-identical to an uninterrupted run, and a third invocation
// short-circuits from the .done record without building an engine. Every
// policy's cell is checkpointable (Linux-NB's state is its scan-walker
// positions).
func TestDurableCellDrainResumesBitIdentical(t *testing.T) {
	for _, pol := range []string{"TPP", "Linux-NB"} {
		t.Run(pol, func(t *testing.T) {
			cell := Cell{Experiment: "durable/drain", Policy: pol, Workload: mkDurableWorkload}
			// Reference: the same cell, no checkpointing, never interrupted.
			refOpts := durableOpts("")
			refOpts.Checkpoint = nil
			ref, failedRef, err := ResilientRun(cell, refOpts)
			if err != nil || failedRef != nil {
				t.Fatalf("reference run: err=%v failed=%v", err, failedRef)
			}
			want := metricsJSON(t, ref)

			// Drain: a pre-cancelled context stops the cell at the first event
			// boundary, after writing a snapshot.
			dir := t.TempDir()
			o := durableOpts(dir)
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			o.Ctx = cctx
			res, failed, err := ResilientRun(cell, o)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil {
				t.Fatal("drained cell returned a finished result")
			}
			if failed == nil || !failed.Interrupted {
				t.Fatalf("drained cell not marked interrupted: %+v", failed)
			}
			if failed.Stalled {
				t.Fatal("drained cell marked stalled")
			}
			if failed.ResumeCkpt == "" {
				t.Fatal("drained cell has no resume pointer")
			}
			if _, serr := os.Stat(failed.ResumeCkpt); serr != nil {
				t.Fatalf("resume pointer unusable: %v", serr)
			}
			if failed.Attempts != 1 {
				t.Fatalf("interrupted cell was retried: attempts=%d", failed.Attempts)
			}
			// The snapshot restores onto a fresh build, so the resume below
			// continues from it rather than replaying from scratch.
			_, ck, stale, err := run.Open(failed.ResumeCkpt, nil, func(*cellCheckpoint) (*engine.Engine, error) {
				p, err := NewPolicy(pol)
				if err != nil {
					return nil, err
				}
				return Build(p, mkDurableWorkload(), o)
			})
			if err != nil || stale != nil || ck == nil {
				t.Fatalf("drained snapshot does not restore: err=%v stale=%v", err, stale)
			}

			// Resume: continues from the snapshot and must finish bit-identical.
			o.Ctx = nil
			o.Checkpoint.Resume = true
			res2, failed2, err := ResilientRun(cell, o)
			if err != nil || failed2 != nil {
				t.Fatalf("resumed run: err=%v failed=%v", err, failed2)
			}
			if res2.Engine == nil {
				t.Fatal("resumed run skipped execution (unexpected .done hit)")
			}
			if got := metricsJSON(t, res2); got != want {
				t.Fatal("resumed cell metrics diverge from the uninterrupted run")
			}

			// Finished: the third invocation short-circuits from .done.
			if _, serr := os.Stat(failed.ResumeCkpt); !os.IsNotExist(serr) {
				t.Fatalf("finished cell kept its snapshot: %v", serr)
			}
			res3, failed3, err := ResilientRun(cell, o)
			if err != nil || failed3 != nil {
				t.Fatalf("short-circuit run: err=%v failed=%v", err, failed3)
			}
			if res3.Engine != nil {
				t.Fatal("finished cell was re-executed instead of short-circuited")
			}
			if got := metricsJSON(t, res3); got != want {
				t.Fatal("short-circuited cell metrics diverge from the recorded run")
			}
		})
	}
}

// TestDurableCellStaleCheckpointFallsBack: a corrupt snapshot must not
// poison the cell — it is dropped and the cell replays from scratch.
func TestDurableCellStaleCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	o := durableOpts(dir)
	o.Checkpoint.Resume = true
	spec := specFor(Cell{Experiment: "durable/stale", Policy: "TPP"}, mkDurableWorkload(), o.withDefaults())
	path := filepath.Join(dir, "cells", cellKey(spec)+".ckpt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, failed, err := ResilientRun(Cell{Experiment: "durable/stale", Policy: "TPP", Workload: mkDurableWorkload}, o)
	if err != nil || failed != nil {
		t.Fatalf("fallback replay: err=%v failed=%v", err, failed)
	}
	if res == nil || res.Engine == nil {
		t.Fatal("fallback replay produced no fresh result")
	}
	if _, serr := os.Stat(strings.TrimSuffix(path, ".ckpt") + ".done"); serr != nil {
		t.Fatalf("fallback replay did not record completion: %v", serr)
	}
}

// TestDurableCellRejectsMismatchedSpec: state recorded for a different
// run configuration is a hard, descriptive error — never a silent resume.
func TestDurableCellRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	o := durableOpts(dir)
	o.Checkpoint.Resume = true
	spec := specFor(Cell{Experiment: "durable/mismatch", Policy: "TPP"}, mkDurableWorkload(), o.withDefaults())
	path := filepath.Join(dir, "cells", cellKey(spec)+".ckpt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Faults = faultinject.Plan{} // "same cell", different fault plan
	if err := checkpoint.Save(path, cellCheckpoint{Spec: other}); err != nil {
		t.Fatal(err)
	}
	_, _, err := ResilientRun(Cell{Experiment: "durable/mismatch", Policy: "TPP", Workload: mkDurableWorkload}, o)
	if err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("mismatched spec not rejected: err=%v", err)
	}
}

// slowWorkload paces the simulation on the wall clock through a keyed
// (hence checkpoint-restorable) ticker, so a virtual run lasts long
// enough in host time for the watchdog to observe it.
type slowWorkload struct {
	workload.Pmbench
}

func (w *slowWorkload) Build(e *engine.Engine) error {
	if err := w.Pmbench.Build(e); err != nil {
		return err
	}
	e.Clock().EveryKey("test/slow", 100*simclock.Millisecond, func(simclock.Time) {
		time.Sleep(time.Millisecond) //chrono:wallclock test pacing only
	})
	return nil
}

func mkSlowWorkload() workload.Workload {
	return &slowWorkload{Pmbench: workload.Pmbench{
		Processes: 2, WorkingSetGB: 1, ReadPct: 70, Stride: 2,
	}}
}

// TestStallWatchdogFlagsFrozenCell: with the test hook freezing the
// sim-time watermark, the watchdog must abort the cell within the
// configured window, record it as stalled with a usable resume pointer,
// and the pointer must actually resume to completion.
func TestStallWatchdogFlagsFrozenCell(t *testing.T) {
	dir := t.TempDir()
	o := durableOpts(dir)
	o.Checkpoint.StallTimeout = 25 * time.Millisecond
	run.StallTestHook = func(simclock.Time) simclock.Time { return 0 }
	defer func() { run.StallTestHook = nil }()

	res, failed, err := ResilientRun(Cell{Experiment: "durable/stall", Policy: "TPP", Workload: mkSlowWorkload}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("frozen cell ran to completion before the watchdog tripped")
	}
	if failed == nil || !failed.Stalled {
		t.Fatalf("frozen cell not marked stalled: %+v", failed)
	}
	if failed.Attempts != 1 {
		t.Fatalf("stalled cell was retried: attempts=%d", failed.Attempts)
	}
	if failed.ResumeCkpt == "" {
		t.Fatal("stalled cell has no resume pointer")
	}
	var ck cellCheckpoint
	if lerr := checkpoint.Load(failed.ResumeCkpt, &ck); lerr != nil {
		t.Fatalf("resume pointer not loadable: %v", lerr)
	}
	if ck.Spec.Experiment != "durable/stall" || ck.State == nil {
		t.Fatalf("resume snapshot incomplete: %+v", ck.Spec)
	}

	// The pointer must be live: un-freeze and resume to completion.
	run.StallTestHook = nil
	o.Checkpoint.Resume = true
	o.Checkpoint.StallTimeout = 0
	res2, failed2, err := ResilientRun(Cell{Experiment: "durable/stall", Policy: "TPP", Workload: mkSlowWorkload}, o)
	if err != nil || failed2 != nil {
		t.Fatalf("resume after stall: err=%v failed=%v", err, failed2)
	}
	if res2.Metrics.Duration != o.Duration {
		t.Fatalf("resumed cell stopped early: duration=%v", res2.Metrics.Duration)
	}
}

// TestPmbenchSweepDrainMarksInterrupted: a cancelled context drains the
// whole grid — skipped cells stay nil without failure entries, and the
// sweep reports Interrupted rather than an error.
func TestPmbenchSweepDrainMarksInterrupted(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := RunOpts{
		Seed: 7, FastGB: 1, SlowGB: 3, Duration: 30 * simclock.Second,
		Workers: 2, Ctx: cctx,
	}
	cfg := PmbenchConfig{Label: "drain probe", Processes: 2, WorkingSetGB: 1}
	s, err := RunPmbenchSweep(cfg, []string{"TPP", "Memtis"}, []float64{95, 5}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Interrupted {
		t.Fatal("drained sweep not marked interrupted")
	}
	for ri := range s.Results {
		for pi := range s.Results[ri] {
			if s.Results[ri][pi] != nil {
				t.Fatalf("cell [%d][%d] ran under a pre-cancelled context", ri, pi)
			}
		}
	}
	if len(s.Failed) != 0 {
		t.Fatalf("skipped cells entered the failure manifest: %v", s.Failed)
	}
}

// wedgeWorkload blocks inside a single event handler until released — the
// hard-stall scenario: the AfterStep hook can never run, so the watchdog
// must abandon the run goroutine.
type wedgeWorkload struct {
	workload.Pmbench
	release chan struct{}
	once    sync.Once
}

func (w *wedgeWorkload) Build(e *engine.Engine) error {
	if err := w.Pmbench.Build(e); err != nil {
		return err
	}
	e.Clock().EveryKey("test/wedge", 200*simclock.Millisecond, func(simclock.Time) {
		w.once.Do(func() { <-w.release })
	})
	return nil
}

// TestHardStallAbandonsAndCounts: a run wedged inside one event must be
// abandoned within 2x the stall timeout, marked AbandonedGoroutine in the
// failure manifest, counted in watchdog.Abandoned, and logged.
func TestHardStallAbandonsAndCounts(t *testing.T) {
	var logged []string
	var logMu sync.Mutex
	oldLogf := watchdog.Logf
	watchdog.Logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	defer func() { watchdog.Logf = oldLogf }()

	release := make(chan struct{})
	defer close(release) // un-wedge so the abandoned goroutine parks and exits
	mk := func() workload.Workload {
		return &wedgeWorkload{
			Pmbench: workload.Pmbench{Processes: 2, WorkingSetGB: 1, ReadPct: 70, Stride: 2},
			release: release,
		}
	}

	before := watchdog.Abandoned()
	o := durableOpts(t.TempDir())
	o.Checkpoint.StallTimeout = 25 * time.Millisecond
	res, failed, err := ResilientRun(Cell{Experiment: "durable/hardstall", Policy: "TPP", Workload: mk}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("wedged cell returned a finished result")
	}
	if failed == nil || !failed.Stalled || !failed.AbandonedGoroutine {
		t.Fatalf("hard stall not recorded as stalled+abandoned: %+v", failed)
	}
	if failed.Attempts != 1 {
		t.Fatalf("hard-stalled cell was retried: attempts=%d", failed.Attempts)
	}
	if got := watchdog.Abandoned(); got != before+1 {
		t.Fatalf("abandoned count %d, want %d", got, before+1)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "durable/hardstall") {
		t.Fatalf("abandonment not logged with cell identity: %q", logged)
	}
}
