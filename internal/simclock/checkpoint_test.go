package simclock

// Property tests for clock checkpointing: a snapshot taken between events
// and restored into a freshly built clock must replay the *exact* event
// sequence — same keys, same times, same FIFO order among ties — that the
// uninterrupted clock produces.

import (
	"fmt"
	"reflect"
	"testing"

	"chrono/internal/rng"
)

// firing is one observed event dispatch.
type firing struct {
	Key string
	At  Time
	Arg int64
	N   uint64
}

// buildRandomClock arms nTickers keyed tickers (random periods, some with
// colliding periods to force same-timestamp ties) and a binder that
// reschedules keyed one-shots in a self-perpetuating chain, all recording
// into log. Construction is identical for the reference and restored
// clocks; only the dynamic state differs.
func buildRandomClock(seed uint64, log *[]firing) *Clock {
	r := rng.New(seed)
	c := New()
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("tick/%d", i)
		// Periods drawn from a small set so several tickers share one and
		// collide at common multiples, exercising seq-order preservation.
		period := Duration(1+r.Intn(4)) * 250 * Millisecond
		k, p := key, period
		c.EveryKey(k, p, func(now Time) {
			*log = append(*log, firing{Key: k, At: now})
		})
	}
	// A one-shot chain: each firing schedules the next via the keyed API,
	// so pending instances exist at any snapshot instant.
	c.BindKey("chain", func(rec EventRecord) {
		scheduleChain(c, log, rec.At, rec.Arg, rec.N)
	})
	scheduleChain(c, log, 100*Millisecond, 0, 1)
	return c
}

func scheduleChain(c *Clock, log *[]firing, at Time, arg int64, n uint64) {
	c.AtKey(at, "chain", arg, n, func(now Time) {
		*log = append(*log, firing{Key: "chain", At: now, Arg: arg, N: n})
		scheduleChain(c, log, now+Duration(130*Millisecond), arg+1, n*3)
	})
}

func TestClockCheckpointReplaysIdenticalSequence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const (
				mid = 3 * Second
				end = 10 * Second
			)
			// Reference: run straight through.
			var refLog []firing
			ref := buildRandomClock(seed, &refLog)
			ref.RunUntil(end)

			// Victim: run to mid, snapshot, keep going to end (snapshot must
			// not perturb), remembering the log length at the snapshot.
			var vicLog []firing
			vic := buildRandomClock(seed, &vicLog)
			var st *State
			var prefix int
			vic.SetAfterStep(func() {
				if st == nil && vic.Now() >= mid {
					st = vic.Snapshot()
					prefix = len(vicLog)
				}
			})
			vic.RunUntil(end)
			if st == nil {
				t.Fatal("snapshot hook never fired")
			}
			if !reflect.DeepEqual(vicLog, refLog) {
				t.Fatal("snapshotting perturbed the run")
			}

			// Restored: fresh clock, overlay the snapshot, run to end. Its
			// log must equal the reference's suffix past the snapshot.
			var resLog []firing
			res := buildRandomClock(seed, &resLog)
			resLog = resLog[:0] // drop construction-time noise (none, but explicit)
			if err := res.Restore(st); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if res.Now() != st.Now {
				t.Fatalf("restored now %v, snapshot %v", res.Now(), st.Now)
			}
			res.RunUntil(end)
			if !reflect.DeepEqual(resLog, refLog[prefix:]) {
				t.Fatalf("restored sequence diverged:\n got %d firings\nwant %d firings (suffix of %d)",
					len(resLog), len(refLog[prefix:]), len(refLog))
			}
		})
	}
}

// TestClockStateRoundTripsThroughRecords: Snapshot → Restore → Snapshot
// must reproduce the identical State (events, seq, fired watermark).
func TestClockStateRoundTrips(t *testing.T) {
	var log []firing
	c := buildRandomClock(99, &log)
	var st *State
	c.SetAfterStep(func() {
		if st == nil && c.Now() >= 2*Second {
			st = c.Snapshot()
			c.Stop()
		}
	})
	c.RunUntil(5 * Second)
	if st == nil {
		t.Fatal("no snapshot")
	}

	var log2 []firing
	c2 := buildRandomClock(99, &log2)
	if err := c2.Restore(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	st2 := c2.Snapshot()
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("state changed across restore:\n got %+v\nwant %+v", st2, st)
	}
}

// TestScheduleRejectsEmptyKey: every event carries a checkpoint key, so an
// event a Snapshot could not rebind cannot be scheduled at all.
func TestScheduleRejectsEmptyKey(t *testing.T) {
	cases := map[string]func(c *Clock){
		"AtKey":    func(c *Clock) { c.AtKey(Second, "", 0, 0, func(now Time) {}) },
		"EveryKey": func(c *Clock) { c.EveryKey("", Second, func(now Time) {}) },
	}
	for name, schedule := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduling under an empty key did not panic")
				}
			}()
			schedule(New())
		})
	}
}

// TestRestoreRejectsUnresolvable: records referencing unknown keys must
// fail before any state is mutated.
func TestRestoreRejectsUnresolvable(t *testing.T) {
	c := New()
	c.EveryKey("known", Second, func(now Time) {})
	err := c.Restore(&State{Now: 0, Events: []EventRecord{
		{At: Second, Seq: 1, Key: "ghost", Period: Second},
	}})
	if err == nil {
		t.Fatal("restore with unregistered ticker key succeeded")
	}
	err = c.Restore(&State{Now: 0, Events: []EventRecord{
		{At: Second, Seq: 1, Key: "ghost-oneshot"},
	}})
	if err == nil {
		t.Fatal("restore with unbound one-shot key succeeded")
	}
	// The failed restores must have left the fresh arming intact.
	if st := c.Snapshot(); len(st.Events) != 1 || st.Events[0].Key != "known" || st.Events[0].At != Second {
		t.Fatalf("failed restore disturbed the clock: %+v", st)
	}
}
