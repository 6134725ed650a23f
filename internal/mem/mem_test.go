package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"chrono/internal/simclock"
)

func newTestNode() *Node {
	return NewNode(Config{FastPages: 1000, SlowPages: 3000})
}

func TestNewNodeDefaults(t *testing.T) {
	n := newTestNode()
	if n.Capacity(FastTier) != 1000 || n.Capacity(SlowTier) != 3000 {
		t.Fatal("capacities wrong")
	}
	if n.Free(FastTier) != 1000 || n.Free(SlowTier) != 3000 {
		t.Fatal("new node not fully free")
	}
	if r := n.FastRatio(); r != 0.25 {
		t.Fatalf("FastRatio=%v", r)
	}
	wm := n.Watermarks(FastTier)
	if !(wm.Min < wm.Low && wm.Low < wm.High && wm.High == wm.Pro) {
		t.Fatalf("watermark ordering broken: %+v", wm)
	}
	if n.PageSizeBytes != 4096 {
		t.Fatalf("default PageSizeBytes=%d", n.PageSizeBytes)
	}
}

func TestNewNodePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewNode(Config{FastPages: 0, SlowPages: 100})
}

func TestAllocFree(t *testing.T) {
	n := newTestNode()
	if err := n.Alloc(FastTier, 600); err != nil {
		t.Fatal(err)
	}
	if n.Free(FastTier) != 400 || n.Used(FastTier) != 600 {
		t.Fatalf("free=%d used=%d", n.Free(FastTier), n.Used(FastTier))
	}
	if err := n.Alloc(FastTier, 500); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("over-alloc error = %v", err)
	}
	n.FreePages(FastTier, 600)
	if n.Free(FastTier) != 1000 {
		t.Fatal("free did not restore")
	}
}

func TestOverFreePanics(t *testing.T) {
	n := newTestNode()
	defer func() {
		if recover() == nil {
			t.Fatal("freeing beyond capacity did not panic")
		}
	}()
	n.FreePages(FastTier, 1)
}

func TestWatermarkChecks(t *testing.T) {
	n := newTestNode()
	high := n.Watermarks(FastTier).High
	n.Alloc(FastTier, n.Capacity(FastTier)-high-1)
	if n.BelowHigh(FastTier) {
		t.Fatal("BelowHigh true while above high")
	}
	n.Alloc(FastTier, 2)
	if !n.BelowHigh(FastTier) {
		t.Fatal("BelowHigh false while below high")
	}
	if got := n.DemotionTarget(FastTier); got != 1 {
		t.Fatalf("DemotionTarget=%d, want 1", got)
	}
}

func TestSetProWatermark(t *testing.T) {
	n := newTestNode()
	high := n.Watermarks(FastTier).High
	n.SetProWatermark(high + 100)
	if got := n.Watermarks(FastTier).Pro; got != high+100 {
		t.Fatalf("Pro=%d", got)
	}
	// Pro cannot fall below high.
	n.SetProWatermark(0)
	if got := n.Watermarks(FastTier).Pro; got != high {
		t.Fatalf("Pro clamped to %d, want high=%d", got, high)
	}
	// Pro cannot exceed capacity.
	n.SetProWatermark(1 << 40)
	if got := n.Watermarks(FastTier).Pro; got != n.Capacity(FastTier) {
		t.Fatalf("Pro over capacity: %d", got)
	}
}

func TestDemotionTargetZeroWhenAbovePro(t *testing.T) {
	n := newTestNode()
	if n.DemotionTarget(FastTier) != 0 {
		t.Fatal("fresh node should not need demotion")
	}
}

func TestMovePages(t *testing.T) {
	n := newTestNode()
	if err := n.Alloc(SlowTier, 100); err != nil {
		t.Fatal(err)
	}
	d, err := n.MovePages(SlowTier, FastTier, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("copy duration %v", d)
	}
	if n.Used(FastTier) != 100 || n.Used(SlowTier) != 0 {
		t.Fatal("MovePages did not transfer accounting")
	}
	if n.PromotedPages != 100 {
		t.Fatalf("PromotedPages=%d", n.PromotedPages)
	}
	d2, err := n.MovePages(FastTier, SlowTier, 40)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= 0 || n.DemotedPages != 40 {
		t.Fatalf("demotion accounting: d=%v demoted=%d", d2, n.DemotedPages)
	}
}

// TestMovePagesCopyTimeConversion pins the copy-time unit chain
// (Bytes.Over(bw).NS() truncated to clock ns) to the float64 expression
// it replaced: (pages*pageSize/bandwidth)*1e9. The typed-units migration
// must not perturb this — results/tables.json is byte-sensitive to it.
func TestMovePagesCopyTimeConversion(t *testing.T) {
	n := newTestNode()
	if err := n.Alloc(SlowTier, 100); err != nil {
		t.Fatal(err)
	}
	d, err := n.MovePages(SlowTier, FastTier, 100)
	if err != nil {
		t.Fatal(err)
	}
	bytes := float64(100 * n.PageSizeBytes)
	want := simclock.Duration(bytes / float64(copyBandwidth) * 1e9)
	if d != want {
		t.Fatalf("copy duration %v, want %v (bytes/bw*1e9)", d, want)
	}
}

func TestMovePagesFailsWhenTargetFull(t *testing.T) {
	n := newTestNode()
	n.Alloc(FastTier, 1000)
	n.Alloc(SlowTier, 10)
	if _, err := n.MovePages(SlowTier, FastTier, 10); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("move into full tier: %v", err)
	}
	// Source accounting untouched on failure.
	if n.Used(SlowTier) != 10 {
		t.Fatal("failed move disturbed source accounting")
	}
}

func TestLatencyModel(t *testing.T) {
	m := newTestNode().Latency()
	if m.Access(FastTier, false) >= m.Access(SlowTier, false) {
		t.Fatal("slow reads should be slower than fast reads")
	}
	if m.Access(SlowTier, true) <= m.Access(SlowTier, false) {
		t.Fatal("Optane writes should be slower than reads")
	}
}

func TestTierIDHelpers(t *testing.T) {
	if FastTier.Other() != SlowTier || SlowTier.Other() != FastTier {
		t.Fatal("Other() wrong")
	}
	if FastTier.String() == "" || SlowTier.String() == "" || TierID(9).String() == "" {
		t.Fatal("String() empty")
	}
}

// TestPropertyConservation: any sequence of alloc/free/move keeps
// used+free == capacity per tier and never goes negative.
func TestPropertyConservation(t *testing.T) {
	type op struct {
		Kind  uint8
		Pages uint8
	}
	f := func(ops []op) bool {
		n := newTestNode()
		for _, o := range ops {
			pages := int64(o.Pages%50) + 1
			switch o.Kind % 4 {
			case 0:
				n.Alloc(FastTier, pages) // may fail; fine
			case 1:
				n.Alloc(SlowTier, pages)
			case 2:
				if n.Used(SlowTier) >= pages {
					n.MovePages(SlowTier, FastTier, pages)
				}
			case 3:
				if n.Used(FastTier) >= pages {
					n.MovePages(FastTier, SlowTier, pages)
				}
			}
			for _, tier := range []TierID{FastTier, SlowTier} {
				if n.Free(tier) < 0 || n.Free(tier)+n.Used(tier) != n.Capacity(tier) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
