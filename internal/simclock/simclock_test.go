package simclock

import (
	"testing"
	"testing/quick"
)

// at schedules a one-shot test event under a fixed checkpoint key and
// returns its queue slot, so a test can cancel it the way a Ticker does.
func at(c *Clock, t Time, fn EventFunc) *event {
	ev := c.alloc()
	ev.fn = fn
	ev.key = "test"
	c.schedule(t, ev)
	return ev
}

func TestZeroClock(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock at %v, want 0", got)
	}
	if c.Pending() != 0 {
		t.Fatalf("new clock has %d pending events", c.Pending())
	}
	if c.Step() {
		t.Fatal("Step on empty clock returned true")
	}
}

func TestEventOrdering(t *testing.T) {
	c := New()
	var fired []int
	at(c, 30, func(Time) { fired = append(fired, 3) })
	at(c, 10, func(Time) { fired = append(fired, 1) })
	at(c, 20, func(Time) { fired = append(fired, 2) })
	c.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", fired)
	}
	if c.Now() != 30 {
		t.Fatalf("clock at %v after run, want 30", c.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	c := New()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		at(c, 5, func(Time) { fired = append(fired, i) })
	}
	c.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("equal-timestamp events fired as %v, want FIFO", fired)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	c := New()
	var got Time
	at(c, 100, func(now Time) {
		at(c, c.Now()+50, func(now Time) { got = now })
	})
	c.Run()
	if got != 150 {
		t.Fatalf("relative event fired at %v, want 150", got)
	}
}

func TestCancel(t *testing.T) {
	c := New()
	fired := false
	c.cancel(at(c, 10, func(Time) { fired = true }))
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	c := New()
	var fired []int
	h1 := at(c, 10, func(Time) { fired = append(fired, 1) })
	at(c, 20, func(Time) { fired = append(fired, 2) })
	at(c, 30, func(Time) { fired = append(fired, 3) })
	c.cancel(h1)
	c.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("after cancel, fired %v, want [2 3]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	at(c, 100, func(Time) {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	at(c, 50, func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	c := New()
	c.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	at(c, c.Now()-1, func(Time) {})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	c := New()
	var fired []Time
	for i := Time(10); i <= 100; i += 10 {
		i := i
		at(c, i, func(now Time) { fired = append(fired, now) })
	}
	c.RunUntil(55)
	if len(fired) != 5 {
		t.Fatalf("RunUntil(55) fired %d events, want 5", len(fired))
	}
	if c.Now() != 55 {
		t.Fatalf("clock at %v after RunUntil(55)", c.Now())
	}
	// Remaining events still pending.
	if c.Pending() != 5 {
		t.Fatalf("%d pending after RunUntil, want 5", c.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	c := New()
	c.RunUntil(1000)
	if c.Now() != 1000 {
		t.Fatalf("idle RunUntil left clock at %v", c.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := New()
	var times []Time
	tk := c.EveryKey("tick", 10, func(now Time) {
		times = append(times, now)
		if len(times) == 5 {
			c.Stop()
		}
	})
	c.Run()
	if len(times) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(times))
	}
	for i, ts := range times {
		if ts != Time(10*(i+1)) {
			t.Fatalf("ticker firing times %v", times)
		}
	}
	tk.Cancel()
}

func TestTickerCancel(t *testing.T) {
	c := New()
	count := 0
	var tk *Ticker
	tk = c.EveryKey("tick", 10, func(now Time) {
		count++
		if count == 3 {
			tk.Cancel()
		}
	})
	c.RunUntil(1000)
	if count != 3 {
		t.Fatalf("cancelled ticker fired %d times, want 3", count)
	}
}

func TestTickerReset(t *testing.T) {
	c := New()
	var times []Time
	var tk *Ticker
	tk = c.EveryKey("tick", 10, func(now Time) {
		times = append(times, now)
		if len(times) == 1 {
			tk.Reset(100)
		}
		if len(times) == 3 {
			c.Stop()
		}
	})
	c.Run()
	if len(times) != 3 || times[0] != 10 || times[1] != 110 || times[2] != 210 {
		t.Fatalf("reset ticker fired at %v, want [10 110 210]", times)
	}
}

func TestNonPositivePeriodPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("EveryKey with period 0 did not panic")
		}
	}()
	c.EveryKey("tick", 0, func(Time) {})
}

func TestStopHaltsRun(t *testing.T) {
	c := New()
	count := 0
	for i := Time(1); i <= 100; i++ {
		at(c, i, func(Time) {
			count++
			if count == 10 {
				c.Stop()
			}
		})
	}
	c.Run()
	if count != 10 {
		t.Fatalf("Run fired %d events after Stop at 10", count)
	}
	if !c.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
}

func TestFiredCounter(t *testing.T) {
	c := New()
	for i := Time(1); i <= 7; i++ {
		at(c, i, func(Time) {})
	}
	c.Run()
	if c.Fired() != 7 {
		t.Fatalf("Fired()=%d, want 7", c.Fired())
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5)=%d", FromSeconds(1.5))
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds()=%v", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3 {
		t.Fatalf("Millis()=%v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Fatalf("String()=%q", s)
	}
}

// TestPropertyMonotonicDispatch: for any set of schedule offsets, events
// fire in non-decreasing time order and the clock never runs backwards.
func TestPropertyMonotonicDispatch(t *testing.T) {
	f := func(offsets []uint16) bool {
		c := New()
		var last Time = -1
		ok := true
		for _, off := range offsets {
			at(c, Time(off), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		c.Run()
		return ok && c.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNestedScheduling: events scheduled from within callbacks
// still dispatch in order.
func TestPropertyNestedScheduling(t *testing.T) {
	f := func(seed uint8) bool {
		c := New()
		var seq []Time
		depth := int(seed%5) + 1
		var nest func(d int) EventFunc
		nest = func(d int) EventFunc {
			return func(now Time) {
				seq = append(seq, now)
				if d > 0 {
					at(c, c.Now()+Duration(d), nest(d-1))
				}
			}
		}
		at(c, 1, nest(depth))
		c.Run()
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				return false
			}
		}
		return len(seq) == depth+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
