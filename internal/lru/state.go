package lru

// Checkpoint support. List order is load-bearing simulation state — the
// kernel's reclaim victims come off list tails positionally — so a list
// serializes as its exact member sequence and restores by rebuilding that
// sequence verbatim.

import (
	"fmt"

	"chrono/internal/checkpoint"
)

// IDs returns the list's members from MRU (head) to LRU (tail).
func (s *List) IDs() []int64 {
	out := make([]int64, 0, s.size)
	s.Each(func(id int64) bool {
		out = append(out, id)
		return true
	})
	return out
}

// SetIDs empties the list and re-inserts ids in order (first element
// becomes the head). Every id must be off all lists of the family — for a
// whole-family restore, empty every list first, then refill each.
func (s *List) SetIDs(ids []int64) {
	for s.head != nilIdx {
		s.Remove(s.head)
	}
	for _, id := range ids {
		s.PushBack(id)
	}
}

// TwoListState is the serializable order of an active/inactive pair.
type TwoListState struct {
	Active   checkpoint.Ints[int64] `json:"active"`
	Inactive checkpoint.Ints[int64] `json:"inactive"`
}

// State captures both lists' member order.
func (t *TwoList) State() TwoListState {
	return TwoListState{Active: t.Active.IDs(), Inactive: t.Inactive.IDs()}
}

// Clear empties both lists. A multi-TwoList restore over one shared link
// family must Clear every pair before any SetState, because a page that
// changed tiers since the snapshot would otherwise still occupy its old
// family slot when its new list inserts it.
func (t *TwoList) Clear() {
	for t.Active.head != nilIdx {
		t.Active.Remove(t.Active.head)
	}
	for t.Inactive.head != nilIdx {
		t.Inactive.Remove(t.Inactive.head)
	}
}

// SetState rebuilds both lists to the captured order. The caller must
// first empty any sibling lists in the same family that held the ids.
func (t *TwoList) SetState(st TwoListState) {
	for t.Active.head != nilIdx {
		t.Active.Remove(t.Active.head)
	}
	for t.Inactive.head != nilIdx {
		t.Inactive.Remove(t.Inactive.head)
	}
	for _, id := range st.Active {
		t.Active.PushBack(id)
	}
	for _, id := range st.Inactive {
		t.Inactive.PushBack(id)
	}
}

// MultiClockState is the serializable member order of every CLOCK level,
// lowest level first.
type MultiClockState struct {
	Levels [][]int64 `json:"levels"`
}

// State captures every level's member order.
func (m *MultiClock) State() MultiClockState {
	st := MultiClockState{Levels: make([][]int64, len(m.Levels))}
	for i, l := range m.Levels {
		st.Levels[i] = l.IDs()
	}
	return st
}

// SetState rebuilds every level to the captured order, replacing the
// current content. The level count must match.
func (m *MultiClock) SetState(st MultiClockState) error {
	if len(st.Levels) != len(m.Levels) {
		return fmt.Errorf("lru: restore: %d clock levels recorded, %d built", len(st.Levels), len(m.Levels))
	}
	for _, l := range m.Levels {
		for l.head != nilIdx {
			m.level[l.head] = -1
			l.Remove(l.head)
		}
	}
	for li, ids := range st.Levels {
		for _, id := range ids {
			if id < 0 {
				return fmt.Errorf("lru: restore: clock level %d holds page %d", li, id)
			}
			m.Grow(int(id) + 1)
			if m.level[id] != -1 {
				return fmt.Errorf("lru: restore: page %d on two clock levels", id)
			}
			m.Levels[li].PushBack(id)
			m.level[id] = int8(li)
		}
	}
	return nil
}
