package core

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// White-box tests for drainQueue's transient-failure handling: a busy
// page must not wedge the promotion queue (skip-and-requeue), retries
// are bounded, and capacity exhaustion keeps its stop-the-drain
// semantics.

func TestDrainQueueTransientSkipsAndRequeues(t *testing.T) {
	c, k := attach(t, quietOptions())
	busy := k.addPage(mem.SlowTier, 1)
	ok1 := k.addPage(mem.SlowTier, 1)
	ok2 := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, busy.ID, ok1.ID, ok2.ID)
	k.transient = func(pg *vm.Page) bool { return pg == busy }
	c.every.migrate = 100 * simclock.Millisecond

	c.drainQueue(k.clock.Now())
	// The busy head must not stall the siblings behind it.
	if len(k.promotes) != 2 {
		t.Fatalf("promoted %d pages behind the busy head, want 2", len(k.promotes))
	}
	// The busy page is requeued at the back, not retried this tick.
	if c.QueueLen() != 1 || c.queue[0] != busy.ID {
		t.Fatalf("busy page not requeued: queue=%v", c.queue)
	}
	if c.retries[busy.ID] != 1 {
		t.Fatalf("retry count = %d, want 1", c.retries[busy.ID])
	}

	// Once the transient condition clears, the next tick promotes it.
	k.transient = nil
	c.drainQueue(k.clock.Now())
	if len(k.promotes) != 3 || c.QueueLen() != 0 {
		t.Fatalf("busy page not promoted after condition cleared: promotes=%d queue=%d",
			len(k.promotes), c.QueueLen())
	}
	if _, live := c.retries[busy.ID]; live {
		t.Fatal("retry count not cleared after successful promotion")
	}
}

func TestDrainQueueDropsAfterMaxRetries(t *testing.T) {
	c, k := attach(t, quietOptions())
	busy := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, busy.ID)
	k.transient = func(*vm.Page) bool { return true }
	c.every.migrate = 100 * simclock.Millisecond

	for i := 0; i < maxPromoteRetries; i++ {
		if c.QueueLen() != 1 {
			t.Fatalf("tick %d: queue length %d, want 1", i, c.QueueLen())
		}
		c.drainQueue(k.clock.Now())
	}
	if c.QueueLen() != 0 {
		t.Fatalf("page not dropped after %d transient aborts", maxPromoteRetries)
	}
	if c.RetryDropped != 1 {
		t.Fatalf("RetryDropped = %d, want 1", c.RetryDropped)
	}
	if _, live := c.retries[busy.ID]; live {
		t.Fatal("retry count leaked after drop")
	}
	if len(k.promotes) != 0 {
		t.Fatal("a transiently failing page was promoted")
	}
}

func TestDrainQueueNoCapacityStillStopsDrain(t *testing.T) {
	c, k := attach(t, quietOptions())
	a := k.addPage(mem.SlowTier, 1)
	b := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, a.ID, b.ID)
	k.promoteOK = func(*vm.Page) bool { return false } // capacity failure
	c.every.migrate = 100 * simclock.Millisecond

	c.drainQueue(k.clock.Now())
	// Capacity exhaustion: head requeued at the FRONT, drain stopped —
	// retrying b against the same dry budget would be wasted work.
	if c.QueueLen() != 2 || c.queue[0] != a.ID {
		t.Fatalf("capacity failure changed queue semantics: queue=%v", c.queue)
	}
	if len(k.promotes) != 0 {
		t.Fatal("promotion happened against scripted capacity failure")
	}
}

// TestDrainQueueStaleClearsRetryCount guards the retries map against
// leaking entries for pages that left the slow tier by other means.
func TestDrainQueueStaleClearsRetryCount(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	c.queue = append(c.queue, pg.ID)
	k.transient = func(*vm.Page) bool { return true }
	c.every.migrate = 100 * simclock.Millisecond
	c.drainQueue(k.clock.Now()) // transient: requeued with count 1

	k.transient = nil
	pg.Tier = mem.FastTier // promoted by reclaim/another path
	c.drainQueue(k.clock.Now())
	if c.QueueLen() != 0 {
		t.Fatal("stale entry not removed")
	}
	if _, live := c.retries[pg.ID]; live {
		t.Fatal("retry count leaked for stale entry")
	}
}
