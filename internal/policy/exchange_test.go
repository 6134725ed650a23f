package policy

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/vm"
)

// exchangeFake moves pages on a real mem.Node; busy scripts how many
// transient failures a page's next moves return. Kernel methods the
// exchange loop must not touch panic via the nil embedded interface.
type exchangeFake struct {
	Kernel
	node  *mem.Node
	busy  map[*vm.Page]int
	tries map[*vm.Page]int
	moves []*vm.Page
}

func (f *exchangeFake) Node() *mem.Node { return f.node }

func (f *exchangeFake) move(pg *vm.Page, to mem.TierID) MigrateResult {
	f.tries[pg]++
	if f.busy[pg] > 0 {
		f.busy[pg]--
		return MigrateTransient
	}
	if _, err := f.node.MovePages(pg.Tier, to, int64(pg.Size)); err != nil {
		return MigrateNoCapacity
	}
	pg.Tier = to
	f.moves = append(f.moves, pg)
	return MigrateOK
}

func (f *exchangeFake) TryPromote(pg *vm.Page) MigrateResult { return f.move(pg, mem.FastTier) }
func (f *exchangeFake) TryDemote(pg *vm.Page) MigrateResult  { return f.move(pg, mem.SlowTier) }

// TestExchangeOrderAndBudget walks one pass on a full fast tier (High
// watermark 2 pages): cold pages are demoted in order only until High+1
// pages are free, a transiently busy hot page is retried attempts times
// and then skipped, and the walk stops when the budget is spent.
func TestExchangeOrderAndBudget(t *testing.T) {
	node := mem.NewNode(mem.Config{FastPages: 100, SlowPages: 100})
	mk := func(tier mem.TierID, n int) []*vm.Page {
		out := make([]*vm.Page, n)
		for i := range out {
			out[i] = &vm.Page{ID: int64(i), Size: 1, Tier: tier}
		}
		if err := node.Alloc(tier, int64(n)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := mk(mem.FastTier, 100)[:5]
	hot := mk(mem.SlowTier, 4)
	f := &exchangeFake{node: node, busy: map[*vm.Page]int{hot[0]: 2}, tries: map[*vm.Page]int{}}

	rest, tail, skips := Exchange(f, hot, cold, 2, 2)
	if rest != 0 || skips != 1 {
		t.Fatalf("rest=%d skips=%d, want 0 and 1", rest, skips)
	}
	if len(tail) != 1 || tail[0] != cold[4] {
		t.Fatalf("cold tail %v, want only the last cold page", tail)
	}
	want := []*vm.Page{cold[0], cold[1], cold[2], hot[1], cold[3], hot[2]}
	if len(f.moves) != len(want) {
		t.Fatalf("%d moves, want %d", len(f.moves), len(want))
	}
	for i := range want {
		if f.moves[i] != want[i] {
			t.Fatalf("move %d is page %d (tier %d), want page %d (tier %d)",
				i, f.moves[i].ID, f.moves[i].Tier, want[i].ID, want[i].Tier)
		}
	}
	if f.tries[hot[0]] != 2 || f.tries[hot[3]] != 0 {
		t.Fatalf("busy page tried %d times (want 2), page past the budget %d (want 0)",
			f.tries[hot[0]], f.tries[hot[3]])
	}
}
