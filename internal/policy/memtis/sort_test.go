package memtis

import (
	"slices"
	"sort"
	"testing"

	"chrono/internal/rng"
	"chrono/internal/vm"
)

// TestSortFuncMatchesSortSlice pins the toolchain property demoteForSpace
// relies on: slices.SortFunc over {counter, page} with coldestFirst
// yields the same permutation, including the order of equal counters, as
// sort.Slice over the pages keyed by counter. The shapes cover both sides
// of pdqsort's insertion-sort cutoff (12) and the inputs that reach its
// partialInsertionSort, reverseRange and breakPatterns paths.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 5, 11, 12, 13, 24, 50, 100, 129, 1000, 4096, 20000}
	shapes := []string{"random", "sorted", "reversed", "nearly-sorted"}
	r := rng.New(7)
	for _, distinct := range []int{1, 2, 4, 18} {
		for _, n := range lengths {
			for _, shape := range shapes {
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = uint32(r.Uint64() % uint64(distinct))
				}
				switch shape {
				case "sorted":
					slices.Sort(keys)
				case "reversed":
					slices.Sort(keys)
					slices.Reverse(keys)
				case "nearly-sorted":
					slices.Sort(keys)
					for s := 0; s < 1+n/1000 && n > 1; s++ {
						i, j := r.Uint64()%uint64(n), r.Uint64()%uint64(n)
						keys[i], keys[j] = keys[j], keys[i]
					}
				}
				pages := make([]*vm.Page, n)
				cands := make([]coldPage, n)
				for i := range pages {
					pages[i] = &vm.Page{ID: int64(i)}
					cands[i] = coldPage{keys[i], pages[i]}
				}
				sort.Slice(pages, func(i, j int) bool { return keys[pages[i].ID] < keys[pages[j].ID] })
				slices.SortFunc(cands, coldestFirst)
				for i := range pages {
					if pages[i] != cands[i].pg {
						t.Fatalf("distinct=%d n=%d %s: permutations differ at %d (page %d vs %d)",
							distinct, n, shape, i, pages[i].ID, cands[i].pg.ID)
					}
				}
			}
		}
	}
}

// TestSortFuncKeepsNonDecreasing pins the toolchain property walkOrder
// relies on to skip the sort: slices.SortFunc with coldestFirst returns
// a list whose counters are already non-decreasing as it is, equal
// counters included. The lengths cover both sides of pdqsort's
// insertion-sort cutoff (12) and of its ninther pivot cutoff (50).
func TestSortFuncKeepsNonDecreasing(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 49, 50, 51, 1000, 20000}
	r := rng.New(11)
	for _, distinct := range []int{1, 2, 4, 18} {
		for _, n := range lengths {
			keys := make([]uint32, n)
			for i := range keys {
				keys[i] = uint32(r.Uint64() % uint64(distinct))
			}
			slices.Sort(keys)
			cands := make([]coldPage, n)
			for i := range cands {
				cands[i] = coldPage{keys[i], &vm.Page{ID: int64(i)}}
			}
			slices.SortFunc(cands, coldestFirst)
			for i, c := range cands {
				if c.pg.ID != int64(i) {
					t.Fatalf("distinct=%d n=%d: position %d holds page %d", distinct, n, i, c.pg.ID)
				}
			}
		}
	}
}
