package engine

// The live-reconfiguration fence: a run snapshotted mid-flight must
// restore into an engine carrying a *different* policy and keep going —
// no dropped run, metrics carried forward, and byte-identical outcomes
// when the same swap is performed twice.

import (
	"bytes"
	"encoding/json"
	"testing"

	"chrono/internal/faultinject"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/tpp"
	"chrono/internal/simclock"
)

// snapshotAt runs the engine until the first event at or past mid, takes
// a snapshot there, and stops the clock — the daemon's swap choreography.
func snapshotAt(t *testing.T, e *Engine, mid, dur simclock.Duration) *EngineState {
	t.Helper()
	var snap *EngineState
	e.Clock().SetAfterStep(func() {
		if snap == nil && e.Clock().Now() >= simclock.Time(mid) {
			s, err := e.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			snap = s
			e.Clock().Stop()
		}
	})
	e.Run(dur)
	if snap == nil {
		t.Fatal("snapshot hook never fired")
	}
	return snap
}

func TestRestoreSwapContinuesRun(t *testing.T) {
	const (
		dur = 60 * simclock.Second
		mid = 30 * simclock.Second
	)
	// Old policy runs the first half...
	old := buildCkptEngine(t, tpp.New(), BasePages, faultinject.Plan{}, 1)
	snap := snapshotAt(t, old, mid, dur)

	// ...and the snapshot round-trips through bytes like a real swap does
	// (the daemon hands the state between two engine builds).
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	swapOnce := func() []byte {
		var st EngineState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		neu := buildCkptEngine(t, memtis.New(), BasePages, faultinject.Plan{}, 1)
		dropped, err := neu.RestoreSwap(&st)
		if err != nil {
			t.Fatalf("restore-swap: %v", err)
		}
		if dropped == 0 {
			t.Fatal("swap from TPP to Memtis dropped no old-policy events")
		}
		if now := neu.Clock().Now(); now != simclock.Time(mid) {
			t.Fatalf("post-swap clock at %v, want %v", now, mid)
		}
		// The run continues, not restarts: pre-swap metrics carry over.
		if got, want := neu.metricsState().Accesses, st.Metrics.Accesses; got != want {
			t.Fatalf("post-swap accesses %v, want snapshot's %v", got, want)
		}
		neu.ResumeRun()
		if now := neu.Clock().Now(); now < simclock.Time(dur) {
			t.Fatalf("swapped run stopped at %v, want %v", now, dur)
		}
		if got := neu.metricsState().Accesses; got <= st.Metrics.Accesses {
			t.Fatalf("no accesses after swap (got %v, snapshot %v) — run dropped", got, st.Metrics.Accesses)
		}
		return finalState(t, neu)
	}

	first := swapOnce()
	second := swapOnce()
	if !bytes.Equal(first, second) {
		t.Fatalf("policy swap not deterministic (%s)", diffHint(second, first))
	}
}

// A swapped run must itself stay checkpointable: snapshot → swap →
// snapshot → restore (same new policy) → resume must match the swapped
// run that never stopped. This is what lets the daemon keep periodic
// crash-recovery checkpoints across a live reconfiguration.
func TestRestoreSwapRemainsCheckpointable(t *testing.T) {
	const (
		dur  = 60 * simclock.Second
		mid  = 20 * simclock.Second
		mid2 = 40 * simclock.Second
	)
	old := buildCkptEngine(t, tpp.New(), BasePages, faultinject.Plan{}, 1)
	snap := snapshotAt(t, old, mid, dur)

	// Reference: swap and run straight to the end.
	ref := buildCkptEngine(t, memtis.New(), BasePages, faultinject.Plan{}, 1)
	if _, err := ref.RestoreSwap(snap); err != nil {
		t.Fatalf("restore-swap: %v", err)
	}
	ref.ResumeRun()
	want := finalState(t, ref)

	// Victim: swap, run to mid2, snapshot, then restore normally (same
	// policy now) into a third build and finish.
	vic := buildCkptEngine(t, memtis.New(), BasePages, faultinject.Plan{}, 1)
	if _, err := vic.RestoreSwap(snap); err != nil {
		t.Fatalf("restore-swap: %v", err)
	}
	snap2 := snapshotAtResume(t, vic, mid2)

	res := buildCkptEngine(t, memtis.New(), BasePages, faultinject.Plan{}, 1)
	if err := res.Restore(snap2); err != nil {
		t.Fatalf("restore after swap: %v", err)
	}
	res.ResumeRun()
	if got := finalState(t, res); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint across a swap diverged (%s)", diffHint(got, want))
	}
}

// snapshotAtResume is snapshotAt for an engine that continues with
// ResumeRun (the horizon is already restored).
func snapshotAtResume(t *testing.T, e *Engine, mid simclock.Duration) *EngineState {
	t.Helper()
	var snap *EngineState
	e.Clock().SetAfterStep(func() {
		if snap == nil && e.Clock().Now() >= simclock.Time(mid) {
			s, err := e.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			snap = s
			e.Clock().Stop()
		}
	})
	e.ResumeRun()
	if snap == nil {
		t.Fatal("snapshot hook never fired")
	}
	return snap
}

// Restore (non-swap) must still reject a policy mismatch — RestoreSwap is
// an explicit opt-in, not a loosening of the default fence.
func TestRestoreSwapIsExplicit(t *testing.T) {
	old := buildCkptEngine(t, tpp.New(), BasePages, faultinject.Plan{}, 1)
	snap := snapshotAt(t, old, 10*simclock.Second, 30*simclock.Second)
	neu := buildCkptEngine(t, memtis.New(), BasePages, faultinject.Plan{}, 1)
	if err := neu.Restore(snap); err == nil {
		t.Fatal("plain Restore accepted a cross-policy checkpoint")
	}
}
