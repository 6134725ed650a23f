package simclock

import (
	"fmt"
	"reflect"
	"testing"
)

// The queue recycles event structs through a free list; these tests pin
// down the hazards that introduces: cancellation must never touch a
// recycled slot's new occupant, and a recycled slot must carry the exact
// payload of its new event.

// A ticker's callback runs after its fired event went back to the free
// list, so a one-shot scheduled inside the callback takes that very slot.
// Cancelling or resetting the ticker from there must leave the one-shot
// queued: a ticker removes its own firing only while it is armed.
func TestTickerCancelAfterRecycleKeepsOtherEvent(t *testing.T) {
	for _, op := range []string{"Cancel", "Reset"} {
		c := New()
		var tk *Ticker
		var fired []Time
		tk = c.EveryKey("tick", 10, func(now Time) {
			fired = append(fired, now)
			if now != 10 {
				return
			}
			if ev := at(c, 15, func(now Time) { fired = append(fired, now) }); ev != tk.ev {
				t.Fatalf("%s: the one-shot did not reuse the ticker's fired slot", op)
			}
			if op == "Cancel" {
				tk.Cancel()
			} else {
				tk.Reset(100)
			}
			if c.Pending() != 1 {
				t.Fatalf("%s: %d events queued after the ticker's %s, want the one-shot", op, c.Pending(), op)
			}
		})
		c.RunUntil(200)
		want := []Time{10, 15}
		if op == "Reset" {
			want = append(want, 110)
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("%s: fired at %v, want %v", op, fired, want)
		}
	}
}

func TestRecyclingPreservesOrdering(t *testing.T) {
	// Interleave schedule/fire/cancel long enough to cycle every slot
	// through the free list several times, and check dispatch stays in
	// (at, seq) order throughout.
	c := New()
	var got []Time
	var self func(now Time)
	rounds := 0
	self = func(now Time) {
		got = append(got, now)
		if rounds < 512 {
			rounds++
			// Two live, one cancelled, per round.
			h := at(c, c.Now()+3, func(Time) { t.Fatal("cancelled event fired") })
			at(c, c.Now()+2, self)
			at(c, c.Now()+1, func(now Time) { got = append(got, now) })
			c.cancel(h)
		}
	}
	at(c, 0, self)
	c.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("dispatch order regressed at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	if want := 513 + 512; len(got) != want { // 513 self firings + 512 anonymous
		t.Fatalf("fired %d events, want %d", len(got), want)
	}
}

func TestAtKeyRecordsPayload(t *testing.T) {
	c := New()
	// Fire one event first so the next schedules reuse a recycled slot.
	c.AtKey(1, "warm", 5, 6, func(Time) {})
	c.Run()
	c.AtKey(20, "b", 2, 8, func(Time) {})
	c.AtKey(10, "a", 1, 7, func(Time) {})
	st := c.Snapshot()
	want := []EventRecord{{At: 10, Seq: 2, Key: "a", Arg: 1, N: 7}, {At: 20, Seq: 1, Key: "b", Arg: 2, N: 8}}
	if !reflect.DeepEqual(st.Events, want) {
		t.Fatalf("recorded events %+v, want %+v", st.Events, want)
	}
}

// TestAtArgCancel cancels a one-shot that carries an argument payload:
// it must not fire and must leave no record in the snapshot.
func TestAtArgCancel(t *testing.T) {
	c := New()
	c.AtKey(10, "arg", 3, 4, func(Time) { t.Fatal("cancelled payload event fired") })
	c.cancel(c.queue[0])
	if got := c.Snapshot().Events; len(got) != 0 {
		t.Fatalf("cancelled event still recorded: %+v", got)
	}
	c.Run()
}

func TestCancelMiddleOfLargeHeap(t *testing.T) {
	// Removal from interior positions exercises the 4-ary siftDown/siftUp
	// pair; verify the survivors still fire in order.
	c := New()
	var handles []*event
	var got []Time
	for i := 100; i > 0; i-- {
		h := at(c, Time(i), func(now Time) { got = append(got, now) })
		handles = append(handles, h)
	}
	// Cancel every third event.
	want := 0
	for i, h := range handles {
		if i%3 == 0 {
			c.cancel(h)
		} else {
			want++
		}
	}
	c.Run()
	if len(got) != want {
		t.Fatalf("fired %d events, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("order regressed: %v after %v", got[i], got[i-1])
		}
	}
}

// BenchmarkClockScheduleFire measures the steady-state schedule+fire cycle
// a one-shot event pays: one AtKey schedule of a long-lived callback and
// one dispatch against a queue with standing tickers. Allocations per op
// should be zero once the free list is warm.
func BenchmarkClockScheduleFire(b *testing.B) {
	c := New()
	cb := func(Time) {}
	// A handful of standing periodic events so the heap is non-trivial.
	for i := 0; i < 8; i++ {
		c.EveryKey(fmt.Sprintf("tick/%d", i), Duration(1000+i), func(Time) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AtKey(c.Now()+1, "bench", 0, uint64(i), cb)
		c.Step()
	}
}
