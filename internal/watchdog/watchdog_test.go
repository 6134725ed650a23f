package watchdog

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A frozen watermark must trip soft at Timeout and hard at 2×Timeout.
func TestWatchEscalates(t *testing.T) {
	var progress atomic.Int64
	var soft atomic.Bool
	hard := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	go Watch(20*time.Millisecond, &progress, &soft, hard, stop)

	select {
	case <-hard:
	case <-time.After(2 * time.Second): //chrono:wallclock test deadline
		t.Fatal("hard stall never declared for a frozen watermark")
	}
	if !soft.Load() {
		t.Fatal("hard stall declared without a soft stall first")
	}
}

// An advancing watermark must never trip, however long the run, and a
// freeze escalates soft at Timeout and hard at 2×Timeout from the last
// change. The escalation step runs on synthetic poll times, so no
// assertion depends on how the host schedules the polling goroutine.
func TestWatchQuietWhileProgressing(t *testing.T) {
	const timeout = 25 * time.Millisecond
	w := watch{timeout: timeout}
	var at time.Duration
	for i := int64(1); i <= 1000; i++ {
		at += timeout // one advance per window: slow, but progressing
		if soft, hard := w.step(i, at); soft || hard {
			t.Fatalf("poll %d at %v: soft=%v hard=%v while the watermark was advancing", i, at, soft, hard)
		}
	}
	// Freeze the watermark at its last value.
	changed := at
	for _, c := range []struct {
		frozen     time.Duration
		soft, hard bool
	}{
		{timeout - 1, false, false},
		{timeout, true, false},
		{2*timeout - 1, true, false},
		{2 * timeout, true, true},
	} {
		if soft, hard := w.step(1000, changed+c.frozen); soft != c.soft || hard != c.hard {
			t.Fatalf("frozen %v: soft=%v hard=%v, want %v/%v", c.frozen, soft, hard, c.soft, c.hard)
		}
	}
	// One advance resets the freeze.
	if soft, hard := w.step(1001, changed+3*timeout); soft || hard {
		t.Fatalf("advance after a stall: soft=%v hard=%v, want quiet", soft, hard)
	}
}

// Closing stop must win over escalation.
func TestWatchStops(t *testing.T) {
	var progress atomic.Int64
	var soft atomic.Bool
	hard := make(chan struct{})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		Watch(10*time.Millisecond, &progress, &soft, hard, stop)
		close(done)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second): //chrono:wallclock test deadline
		t.Fatal("Watch did not return after stop")
	}
}

// NoteAbandoned must count monotonically and log the caller's context.
func TestNoteAbandoned(t *testing.T) {
	var lines []string
	old := Logf
	Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	defer func() { Logf = old }()

	before := Abandoned()
	n := NoteAbandoned("cell tpp/pmbench seed=7")
	if n != before+1 || Abandoned() != before+1 {
		t.Fatalf("count: note=%d total=%d want %d", n, Abandoned(), before+1)
	}
	NoteAbandoned("cell memtis/gups seed=9")
	if Abandoned() != before+2 {
		t.Fatalf("total=%d want %d", Abandoned(), before+2)
	}
	if len(lines) != 2 || !strings.Contains(lines[0], "cell tpp/pmbench seed=7") {
		t.Fatalf("abandonment not logged with context: %q", lines)
	}
}
