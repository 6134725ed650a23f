package simclock

// RestoreInto is the policy-swap path: a snapshot from one clock
// configuration overlays a clock built for a different one. The old
// configuration's unresolvable events must drop (not error), the new
// configuration's tickers must adopt on their natural phase, and the
// whole operation must be deterministic.

import (
	"reflect"
	"testing"
)

func TestRestoreIntoSwapsTickerSets(t *testing.T) {
	// Old configuration: a shared ticker, an old-only ticker, and an
	// old-only pending one-shot.
	var oldLog []firing
	old := New()
	old.EveryKey("shared", 250*Millisecond, func(now Time) {
		oldLog = append(oldLog, firing{Key: "shared", At: now})
	})
	old.EveryKey("old", 300*Millisecond, func(now Time) {
		oldLog = append(oldLog, firing{Key: "old", At: now})
	})
	old.AtKey(5*Second, "oldshot", 0, 0, func(now Time) {})

	var st *State
	old.SetAfterStep(func() {
		if st == nil && old.Now() >= Second {
			st = old.Snapshot()
			old.Stop()
		}
	})
	old.RunUntil(2 * Second)
	if st == nil {
		t.Fatal("snapshot hook never fired")
	}
	if st.Now != Second {
		t.Fatalf("snapshot at %v, want exactly 1s (first event past the mark)", st.Now)
	}

	run := func() (int, []firing, Time) {
		var log []firing
		c := New()
		c.EveryKey("shared", 250*Millisecond, func(now Time) {
			log = append(log, firing{Key: "shared", At: now})
		})
		c.EveryKey("new", 400*Millisecond, func(now Time) {
			log = append(log, firing{Key: "new", At: now})
		})
		dropped, err := c.RestoreInto(st)
		if err != nil {
			t.Fatalf("restore-into: %v", err)
		}
		at := c.Now()
		c.RunUntil(1999 * Millisecond)
		return dropped, log, at
	}

	dropped, log, now := run()
	// The old-only ticker's pending event and the unbound one-shot drop.
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (old ticker event + unbound one-shot)", dropped)
	}
	if now != st.Now {
		t.Fatalf("restored now %v, snapshot %v", now, st.Now)
	}
	// "shared" keeps its recorded phase (next at 1250); "new" adopts at the
	// first multiple of its period strictly after the snapshot (1200).
	want := []firing{
		{Key: "new", At: 1200 * Millisecond},
		{Key: "shared", At: 1250 * Millisecond},
		{Key: "shared", At: 1500 * Millisecond},
		{Key: "new", At: 1600 * Millisecond},
		{Key: "shared", At: 1750 * Millisecond},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("post-swap sequence:\n got %+v\nwant %+v", log, want)
	}

	// Deterministic: a second identical swap replays identically.
	dropped2, log2, _ := run()
	if dropped2 != dropped || !reflect.DeepEqual(log2, log) {
		t.Fatalf("swap not deterministic:\n got %+v (dropped %d)\nwant %+v (dropped %d)",
			log2, dropped2, log, dropped)
	}
}

// A failed RestoreInto (corrupt record) must leave the target clock's
// fresh arming untouched so the caller can fall back.
func TestRestoreIntoValidationLeavesClockIntact(t *testing.T) {
	c := New()
	c.EveryKey("tick", Second, func(now Time) {})
	_, err := c.RestoreInto(&State{Now: 2 * Second, Events: []EventRecord{
		{At: Second, Seq: 1, Key: "tick", Period: Second},
	}})
	if err == nil {
		t.Fatal("restore-into with a past event succeeded")
	}
	st := c.Snapshot()
	if len(st.Events) != 1 || st.Events[0].Key != "tick" || st.Events[0].At != Second {
		t.Fatalf("fresh arming perturbed: %+v", st.Events)
	}
}

// RestoreInto into an identically configured clock behaves like Restore:
// nothing drops, recorded events keep their positions.
func TestRestoreIntoIdenticalConfigDropsNothing(t *testing.T) {
	var log []firing
	ref := buildRandomClock(3, &log)
	var st *State
	ref.SetAfterStep(func() {
		if st == nil && ref.Now() >= 2*Second {
			st = ref.Snapshot()
			ref.Stop()
		}
	})
	ref.RunUntil(5 * Second)
	if st == nil {
		t.Fatal("no snapshot")
	}

	var log2 []firing
	c := buildRandomClock(3, &log2)
	dropped, err := c.RestoreInto(st)
	if err != nil {
		t.Fatalf("restore-into: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d events restoring into identical config", dropped)
	}
	st2 := c.Snapshot()
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("state changed across restore-into:\n got %+v\nwant %+v", st2, st)
	}
}
