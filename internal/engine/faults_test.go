package engine

// Fences for the fault queue (simclock.ShardQueue) that drainFaults
// replays from: eager per-page replacement and the canonical
// (At, ID, Seq) pop order.

import (
	"fmt"
	"testing"

	"chrono/internal/simclock"
)

// TestShardQueueReplacement pins the eager-replacement contract of the
// fault queue: pushing a newer entry for a page evicts the stale one, so
// Protect/Unprotect churn cannot grow the heap beyond the live page count.
func TestShardQueueReplacement(t *testing.T) {
	var q simclock.ShardQueue
	for cycle := 0; cycle < 1000; cycle++ {
		for id := int64(0); id < 16; id += 4 { // sparse IDs: the position index spans gaps
			q.Push(simclock.ShardEntry{At: simclock.Time(1000 + cycle), ID: id, Seq: uint64(cycle)})
		}
		if q.Len() > 4 {
			t.Fatalf("cycle %d: queue holds %d entries for 4 pages — replacement broken", cycle, q.Len())
		}
	}
	for want := int64(0); want < 16; want += 4 {
		en, ok := q.PopLE(simclock.MaxTime)
		if !ok || en.ID != want || en.Seq != 999 {
			t.Fatalf("pop: got (%v,%v), want ID %d Seq 999", en, ok, want)
		}
	}
	if _, ok := q.PopLE(simclock.MaxTime); ok {
		t.Fatal("queue not empty after draining")
	}
}

// TestShardQueueCanonicalOrder pins the (At, ID, Seq) pop order on ties.
func TestShardQueueCanonicalOrder(t *testing.T) {
	var q simclock.ShardQueue
	entries := []simclock.ShardEntry{
		{At: 50, ID: 9, Seq: 1},
		{At: 50, ID: 2, Seq: 7},
		{At: 10, ID: 30, Seq: 3},
		{At: 50, ID: 4, Seq: 2},
		{At: 99, ID: 1, Seq: 1},
	}
	for _, e := range entries {
		q.Push(e)
	}
	var got []string
	for {
		en, ok := q.PopLE(simclock.MaxTime)
		if !ok {
			break
		}
		got = append(got, fmt.Sprintf("%d/%d/%d", en.At, en.ID, en.Seq))
	}
	want := []string{"10/30/3", "50/2/7", "50/4/2", "50/9/1", "99/1/1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}
