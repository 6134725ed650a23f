// Package lru implements the page-list machinery the simulated kernel and
// the baseline policies rely on: the classic two-list (active/inactive)
// LRU used by Linux reclaim and by TPP's recency check, and the
// multi-level CLOCK lists used by the Multi-Clock baseline (Maruf et al.,
// HPCA '22).
//
// Lists are intrusive over opaque int64 page IDs with O(1) move/remove,
// so a page's list membership costs two machine words, matching the
// list_head economics of the kernel implementation.
package lru

import "slices"

// nilIdx marks the absence of a neighbour.
const nilIdx = int64(-1)

// List is a doubly linked list over dense page IDs. The caller provides
// the backing links store (shared across the lists of one owner) so that
// a page can be on at most one list at a time, like a kernel list_head.
type List struct {
	links *Links
	head  int64
	tail  int64
	size  int
	id    int // which list a member belongs to, for O(1) membership tests
}

// Links is the shared per-page link storage for a family of lists.
type Links struct {
	next, prev []int64
	list       []int32 // list id the page is on, or -1
	nlists     int32
}

// NewLinks creates link storage for n pages.
func NewLinks(n int) *Links {
	l := &Links{}
	l.Grow(n)
	return l
}

// Grow extends the link storage to cover at least n pages, off every list.
// Each array grows at most once per call, with append's amortized slack.
func (l *Links) Grow(n int) {
	old := len(l.next)
	if n <= old {
		return
	}
	l.next = slices.Grow(l.next, n-old)[:n]
	l.prev = slices.Grow(l.prev, n-old)[:n]
	l.list = slices.Grow(l.list, n-old)[:n]
	for i := old; i < n; i++ {
		l.next[i] = nilIdx
		l.prev[i] = nilIdx
		l.list[i] = -1
	}
}

// NewList creates a list backed by links.
func (l *Links) NewList() *List {
	id := int(l.nlists)
	l.nlists++
	return &List{links: l, head: nilIdx, tail: nilIdx, id: id}
}

// Len returns the number of pages on the list.
func (s *List) Len() int { return s.size }

// Contains reports whether page id is on this list.
func (s *List) Contains(id int64) bool {
	return s.links.list[id] == int32(s.id)
}

// OnAnyList reports whether the page is on any list of this family.
func (l *Links) OnAnyList(id int64) bool { return l.list[id] >= 0 }

// PushFront inserts id at the head (most recently used end). The page must
// not be on any list of the family.
func (s *List) PushFront(id int64) {
	lk := s.links
	if lk.list[id] != -1 {
		panic("lru: page already on a list")
	}
	lk.list[id] = int32(s.id)
	lk.prev[id] = nilIdx
	lk.next[id] = s.head
	if s.head != nilIdx {
		lk.prev[s.head] = id
	}
	s.head = id
	if s.tail == nilIdx {
		s.tail = id
	}
	s.size++
}

// PushBack inserts id at the tail (least recently used end).
func (s *List) PushBack(id int64) {
	lk := s.links
	if lk.list[id] != -1 {
		panic("lru: page already on a list")
	}
	lk.list[id] = int32(s.id)
	lk.next[id] = nilIdx
	lk.prev[id] = s.tail
	if s.tail != nilIdx {
		lk.next[s.tail] = id
	}
	s.tail = id
	if s.head == nilIdx {
		s.head = id
	}
	s.size++
}

// Remove unlinks id from the list. Removing a page not on this list panics.
func (s *List) Remove(id int64) {
	lk := s.links
	if lk.list[id] != int32(s.id) {
		panic("lru: removing page not on this list")
	}
	if lk.prev[id] != nilIdx {
		lk.next[lk.prev[id]] = lk.next[id]
	} else {
		s.head = lk.next[id]
	}
	if lk.next[id] != nilIdx {
		lk.prev[lk.next[id]] = lk.prev[id]
	} else {
		s.tail = lk.prev[id]
	}
	lk.next[id] = nilIdx
	lk.prev[id] = nilIdx
	lk.list[id] = -1
	s.size--
}

// PopBack removes and returns the LRU-end page, or -1 if empty.
func (s *List) PopBack() int64 {
	if s.tail == nilIdx {
		return -1
	}
	id := s.tail
	s.Remove(id)
	return id
}

// PopFront removes and returns the MRU-end page, or -1 if empty.
func (s *List) PopFront() int64 {
	if s.head == nilIdx {
		return -1
	}
	id := s.head
	s.Remove(id)
	return id
}

// Back returns the LRU-end page without removing it, or -1 if empty.
func (s *List) Back() int64 { return s.tail }

// Front returns the MRU-end page without removing it, or -1 if empty.
func (s *List) Front() int64 { return s.head }

// MoveToFront relocates id to the head. The page must be on this list.
func (s *List) MoveToFront(id int64) {
	s.Remove(id)
	s.PushFront(id)
}

// Each calls fn for every page from MRU to LRU end. fn must not mutate the
// list; use EachSafe for removal during iteration.
func (s *List) Each(fn func(id int64) bool) {
	for id := s.head; id != nilIdx; id = s.links.next[id] {
		if !fn(id) {
			return
		}
	}
}

// TailN appends up to n page IDs from the LRU end into out and returns it.
func (s *List) TailN(n int, out []int64) []int64 {
	for id := s.tail; id != nilIdx && n > 0; id = s.links.prev[id] {
		out = append(out, id)
		n--
	}
	return out
}

// TwoList is the Linux-style active/inactive pair for one tier, with the
// standard promotion/demotion flows: a referenced inactive page is
// activated; aging rotates the active tail down when the inactive list
// shrinks below the target ratio.
type TwoList struct {
	Active   *List
	Inactive *List
	// InactiveRatio is the desired active:inactive balance denominator:
	// inactive should hold at least 1/(ratio+1) of pages. Linux uses a
	// size-dependent ratio; 2 reproduces its behaviour at simulator scale.
	InactiveRatio int
}

// NewTwoList builds an active/inactive pair over links.
func NewTwoList(links *Links) *TwoList {
	return &TwoList{
		Active:        links.NewList(),
		Inactive:      links.NewList(),
		InactiveRatio: 2,
	}
}

// Len returns total pages across both lists.
func (t *TwoList) Len() int { return t.Active.Len() + t.Inactive.Len() }

// AddNew inserts a newly resident page at the inactive head, the Linux
// default for first-touch pages.
func (t *TwoList) AddNew(id int64) { t.Inactive.PushFront(id) }

// Drop removes the page from whichever list holds it (no-op if neither).
func (t *TwoList) Drop(id int64) {
	switch {
	case t.Active.Contains(id):
		t.Active.Remove(id)
	case t.Inactive.Contains(id):
		t.Inactive.Remove(id)
	}
}

// Touch records a reference: inactive pages activate; active pages move to
// the active head.
func (t *TwoList) Touch(id int64) {
	switch {
	case t.Inactive.Contains(id):
		t.Inactive.Remove(id)
		t.Active.PushFront(id)
	case t.Active.Contains(id):
		t.Active.MoveToFront(id)
	}
}

// ActivateReferenced scans up to budget pages from the inactive tail:
// pages whose accessed bit (reported and cleared by the callback) is set
// move to the active head; unreferenced pages rotate to the inactive head
// so the whole list is examined across passes.
func (t *TwoList) ActivateReferenced(budget int, accessed func(id int64) bool) {
	if budget > t.Inactive.Len() {
		budget = t.Inactive.Len()
	}
	for i := 0; i < budget; i++ {
		id := t.Inactive.PopBack()
		if id < 0 {
			return
		}
		if accessed != nil && accessed(id) {
			t.Active.PushFront(id)
		} else {
			t.Inactive.PushFront(id)
		}
	}
}

// Age rebalances: while the inactive list is smaller than
// total/(ratio+1), the active tail is deactivated. The accessed callback
// lets the owner consult (and clear) the simulated accessed bit — an
// accessed active-tail page is rotated to the active head instead.
func (t *TwoList) Age(accessed func(id int64) bool) {
	target := t.Len() / (t.InactiveRatio + 1)
	guard := t.Active.Len() // at most one full rotation per aging pass
	for t.Inactive.Len() < target && t.Active.Len() > 0 && guard > 0 {
		guard--
		id := t.Active.Back()
		if accessed != nil && accessed(id) {
			t.Active.MoveToFront(id)
			continue
		}
		t.Active.Remove(id)
		t.Inactive.PushFront(id)
	}
}

// MultiClock is the Multi-Clock baseline's per-tier structure: N ordered
// CLOCK lists; a page referenced during a scan climbs one level, an
// unreferenced page descends one level. Promotion candidates come from the
// top list of the slow tier, demotion candidates from the bottom list of
// the fast tier.
type MultiClock struct {
	Levels []*List
	level  []int8 // per-page current level, -1 if absent
	moves  []clockMove
}

// clockMove is one page's level change from a Scan, applied after the
// pass so a page moves at most one level per Scan.
type clockMove struct {
	id    int64
	level int
}

// NewMultiClock builds n CLOCK levels over a fresh link family sized for
// npages.
func NewMultiClock(nlevels, npages int) *MultiClock {
	links := NewLinks(npages)
	m := &MultiClock{level: make([]int8, npages)}
	for i := range m.level {
		m.level[i] = -1
	}
	for i := 0; i < nlevels; i++ {
		m.Levels = append(m.Levels, links.NewList())
	}
	return m
}

// Grow extends per-page storage.
func (m *MultiClock) Grow(npages int) {
	m.Levels[0].links.Grow(npages)
	for len(m.level) < npages {
		m.level = append(m.level, -1)
	}
}

// Add inserts a page at the given level.
func (m *MultiClock) Add(id int64, level int) {
	if m.level[id] != -1 {
		panic("lru: page already tracked by MultiClock")
	}
	if level < 0 {
		level = 0
	}
	if level >= len(m.Levels) {
		level = len(m.Levels) - 1
	}
	m.Levels[level].PushFront(id)
	m.level[id] = int8(level)
}

// Drop removes a page entirely.
func (m *MultiClock) Drop(id int64) {
	if m.level[id] < 0 {
		return
	}
	m.Levels[m.level[id]].Remove(id)
	m.level[id] = -1
}

// Level returns the page's current level, or -1.
func (m *MultiClock) Level(id int64) int { return int(m.level[id]) }

// Scan performs one CLOCK pass over up to budget pages of every level:
// pages whose accessed bit (reported and cleared by the callback) is set
// climb one level; others descend one level.
func (m *MultiClock) Scan(budget int, accessed func(id int64) bool) {
	moves := m.moves[:0]
	for li, l := range m.Levels {
		n := budget
		if n > l.Len() {
			n = l.Len()
		}
		for i := 0; i < n; i++ {
			id := l.PopBack()
			if id < 0 {
				break
			}
			m.level[id] = -1
			target := li
			if accessed(id) {
				if target < len(m.Levels)-1 {
					target++
				}
			} else if target > 0 {
				target--
			}
			moves = append(moves, clockMove{id, target})
		}
	}
	for _, mv := range moves {
		m.Levels[mv.level].PushFront(mv.id)
		m.level[mv.id] = int8(mv.level)
	}
	m.moves = moves
}

// Top returns up to n pages from the highest non-empty level (hot
// candidates).
func (m *MultiClock) Top(n int) []int64 {
	var out []int64
	for li := len(m.Levels) - 1; li >= 0 && n > 0; li-- {
		got := m.Levels[li].TailN(n, nil)
		out = append(out, got...)
		n -= len(got)
		if li == 0 || len(out) > 0 {
			break
		}
	}
	return out
}

// Bottom returns up to n pages from the lowest non-empty level (cold
// candidates).
func (m *MultiClock) Bottom(n int) []int64 {
	var out []int64
	for li := 0; li < len(m.Levels) && n > 0; li++ {
		got := m.Levels[li].TailN(n, nil)
		out = append(out, got...)
		n -= len(got)
		if len(out) > 0 {
			break
		}
	}
	return out
}
