package lru

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestListBasics(t *testing.T) {
	links := NewLinks(10)
	l := links.NewList()
	if l.Len() != 0 || l.Back() != -1 || l.Front() != -1 {
		t.Fatal("empty list state wrong")
	}
	l.PushFront(3)
	l.PushFront(5)
	l.PushBack(7)
	// Order front→back: 5, 3, 7.
	if l.Front() != 5 || l.Back() != 7 || l.Len() != 3 {
		t.Fatalf("front=%d back=%d len=%d", l.Front(), l.Back(), l.Len())
	}
	var order []int64
	l.Each(func(id int64) bool {
		order = append(order, id)
		return true
	})
	if len(order) != 3 || order[0] != 5 || order[1] != 3 || order[2] != 7 {
		t.Fatalf("order=%v", order)
	}
}

func TestListRemoveMiddle(t *testing.T) {
	links := NewLinks(10)
	l := links.NewList()
	for i := int64(0); i < 5; i++ {
		l.PushBack(i)
	}
	l.Remove(2)
	if l.Contains(2) {
		t.Fatal("removed page still contained")
	}
	var order []int64
	l.Each(func(id int64) bool { order = append(order, id); return true })
	want := []int64{0, 1, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order after removal %v", order)
		}
	}
}

func TestListPopEnds(t *testing.T) {
	links := NewLinks(4)
	l := links.NewList()
	l.PushBack(0)
	l.PushBack(1)
	l.PushBack(2)
	if got := l.PopBack(); got != 2 {
		t.Fatalf("PopBack=%d", got)
	}
	if got := l.PopFront(); got != 0 {
		t.Fatalf("PopFront=%d", got)
	}
	if got := l.PopBack(); got != 1 {
		t.Fatalf("PopBack=%d", got)
	}
	if l.PopBack() != -1 || l.PopFront() != -1 {
		t.Fatal("pop on empty should return -1")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	links := NewLinks(4)
	a, b := links.NewList(), links.NewList()
	a.PushFront(1)
	defer func() {
		if recover() == nil {
			t.Fatal("pushing a page onto two lists did not panic")
		}
	}()
	b.PushFront(1)
}

func TestRemoveFromWrongListPanics(t *testing.T) {
	links := NewLinks(4)
	a, b := links.NewList(), links.NewList()
	a.PushFront(1)
	defer func() {
		if recover() == nil {
			t.Fatal("removing from wrong list did not panic")
		}
	}()
	b.Remove(1)
}

func TestMoveToFront(t *testing.T) {
	links := NewLinks(5)
	l := links.NewList()
	for i := int64(0); i < 4; i++ {
		l.PushBack(i)
	}
	l.MoveToFront(3)
	if l.Front() != 3 || l.Back() != 2 || l.Len() != 4 {
		t.Fatal("MoveToFront broke ordering")
	}
}

func TestTailN(t *testing.T) {
	links := NewLinks(10)
	l := links.NewList()
	for i := int64(0); i < 6; i++ {
		l.PushFront(i) // back is 0, then 1, ...
	}
	got := l.TailN(3, nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("TailN=%v", got)
	}
	if got := l.TailN(100, nil); len(got) != 6 {
		t.Fatalf("TailN over length returned %d", len(got))
	}
}

func TestLinksGrow(t *testing.T) {
	links := NewLinks(2)
	l := links.NewList()
	links.Grow(10)
	l.PushFront(9)
	if !l.Contains(9) {
		t.Fatal("page beyond original size not usable after Grow")
	}
}

func TestTwoListFlows(t *testing.T) {
	links := NewLinks(20)
	tl := NewTwoList(links)
	for i := int64(0); i < 10; i++ {
		tl.AddNew(i)
	}
	if tl.Inactive.Len() != 10 || tl.Active.Len() != 0 {
		t.Fatal("AddNew should land on inactive")
	}
	tl.Touch(5)
	if !tl.Active.Contains(5) {
		t.Fatal("Touch did not activate")
	}
	tl.Touch(5)
	if tl.Active.Front() != 5 {
		t.Fatal("second Touch did not move to front")
	}
	tl.Drop(5)
	tl.Drop(6)
	if tl.Len() != 8 {
		t.Fatalf("Len=%d after drops", tl.Len())
	}
	// Dropping an untracked page is a no-op.
	tl.Drop(19)
}

func TestTwoListAge(t *testing.T) {
	links := NewLinks(30)
	tl := NewTwoList(links)
	for i := int64(0); i < 30; i++ {
		tl.AddNew(i)
		tl.Touch(i) // all active
	}
	if tl.Inactive.Len() != 0 {
		t.Fatal("setup: everything should be active")
	}
	// Age with nothing accessed: inactive refills to target (len/3 = 10).
	tl.Age(func(int64) bool { return false })
	if tl.Inactive.Len() != 10 {
		t.Fatalf("inactive after Age = %d, want 10", tl.Inactive.Len())
	}
	// The deactivated pages are the oldest-activated (0..9 were touched
	// first, ending at the active tail).
	for i := int64(0); i < 10; i++ {
		if !tl.Inactive.Contains(i) {
			t.Fatalf("page %d should have been deactivated", i)
		}
	}
}

func TestTwoListAgeRespectsAccessed(t *testing.T) {
	links := NewLinks(12)
	tl := NewTwoList(links)
	for i := int64(0); i < 12; i++ {
		tl.AddNew(i)
		tl.Touch(i)
	}
	// Everything claims to be accessed: the guard must prevent an
	// infinite rotation and nothing is deactivated.
	tl.Age(func(int64) bool { return true })
	if tl.Inactive.Len() != 0 {
		t.Fatalf("accessed pages were deactivated: %d", tl.Inactive.Len())
	}
}

func TestActivateReferenced(t *testing.T) {
	links := NewLinks(10)
	tl := NewTwoList(links)
	for i := int64(0); i < 10; i++ {
		tl.AddNew(i)
	}
	// Even pages referenced.
	tl.ActivateReferenced(10, func(id int64) bool { return id%2 == 0 })
	if tl.Active.Len() != 5 || tl.Inactive.Len() != 5 {
		t.Fatalf("active=%d inactive=%d", tl.Active.Len(), tl.Inactive.Len())
	}
	for i := int64(0); i < 10; i += 2 {
		if !tl.Active.Contains(i) {
			t.Fatalf("page %d should be active", i)
		}
	}
}

func TestActivateReferencedBudget(t *testing.T) {
	links := NewLinks(10)
	tl := NewTwoList(links)
	for i := int64(0); i < 10; i++ {
		tl.AddNew(i)
	}
	examined := 0
	tl.ActivateReferenced(3, func(int64) bool { examined++; return false })
	if examined != 3 {
		t.Fatalf("examined %d, want 3", examined)
	}
}

func TestMultiClockClimbAndDescend(t *testing.T) {
	m := NewMultiClock(4, 10)
	for i := int64(0); i < 10; i++ {
		m.Add(i, 0)
	}
	// Pages 0-4 accessed each scan; the rest idle.
	hot := func(id int64) bool { return id < 5 }
	for pass := 0; pass < 4; pass++ {
		m.Scan(100, hot)
	}
	for i := int64(0); i < 5; i++ {
		if m.Level(i) != 3 {
			t.Fatalf("hot page %d at level %d, want 3", i, m.Level(i))
		}
	}
	for i := int64(5); i < 10; i++ {
		if m.Level(i) != 0 {
			t.Fatalf("cold page %d climbed to %d", i, m.Level(i))
		}
	}
	top := m.Top(10)
	if len(top) != 5 {
		t.Fatalf("Top returned %d pages", len(top))
	}
	bottom := m.Bottom(10)
	if len(bottom) != 5 {
		t.Fatalf("Bottom returned %d pages", len(bottom))
	}
	for _, id := range bottom {
		if id < 5 {
			t.Fatalf("hot page %d in Bottom", id)
		}
	}
}

// TestMultiClockScanAllocFree: a steady-state Scan reuses its move
// scratch, and the level order it leaves matches a pass that applies
// each level's moves in pop order.
func TestMultiClockScanAllocFree(t *testing.T) {
	const n = 256
	m := NewMultiClock(4, n)
	for i := int64(0); i < n; i++ {
		m.Add(i, int(i%4))
	}
	pass := 0
	accessed := func(id int64) bool { return (id+int64(pass))%3 == 0 }
	m.Scan(n, accessed) // sizes the scratch
	if allocs := testing.AllocsPerRun(20, func() {
		pass++
		m.Scan(n, accessed)
	}); allocs != 0 {
		t.Fatalf("Scan allocates %.1f times per pass, want 0", allocs)
	}

	// Reference: one pass over level i pops its tail first, and every
	// page is pushed to the front of its target in pop order, lowest
	// level first.
	want := make([][]int64, len(m.Levels))
	var popped []clockMove
	for li, l := range m.Levels {
		for id := l.Back(); id >= 0; id = l.links.prev[id] {
			target := li
			if accessed(id) {
				target = min(li+1, len(m.Levels)-1)
			} else if li > 0 {
				target = li - 1
			}
			popped = append(popped, clockMove{id, target})
		}
	}
	for li, l := range m.Levels {
		want[li] = l.IDs()
	}
	for _, mv := range popped {
		src := int(m.Level(mv.id))
		want[src] = slices.DeleteFunc(want[src], func(id int64) bool { return id == mv.id })
	}
	for _, mv := range popped {
		want[mv.level] = append([]int64{mv.id}, want[mv.level]...)
	}
	m.Scan(n, accessed)
	for li, l := range m.Levels {
		if got := l.IDs(); !slices.Equal(got, want[li]) {
			t.Fatalf("level %d after Scan = %v, want %v", li, got, want[li])
		}
	}
}

func TestMultiClockDropAndReadd(t *testing.T) {
	m := NewMultiClock(4, 5)
	m.Add(2, 1)
	if m.Level(2) != 1 {
		t.Fatalf("Level=%d", m.Level(2))
	}
	m.Drop(2)
	if m.Level(2) != -1 {
		t.Fatal("Drop did not clear level")
	}
	m.Drop(2) // double drop is a no-op
	m.Add(2, 99)
	if m.Level(2) != 3 {
		t.Fatal("Add should clamp level to top")
	}
}

func TestMultiClockGrow(t *testing.T) {
	m := NewMultiClock(2, 2)
	m.Grow(10)
	m.Add(9, 0)
	if m.Level(9) != 0 {
		t.Fatal("page beyond original size unusable after Grow")
	}
}

// TestPropertyListConsistency: random push/pop/remove against a slice
// reference model.
func TestPropertyListConsistency(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		links := NewLinks(64)
		l := links.NewList()
		var model []int64 // front..back
		inList := make(map[int64]bool)
		for _, opByte := range opsRaw {
			id := int64(r.Intn(64))
			switch opByte % 4 {
			case 0:
				if !inList[id] {
					l.PushFront(id)
					model = append([]int64{id}, model...)
					inList[id] = true
				}
			case 1:
				if !inList[id] {
					l.PushBack(id)
					model = append(model, id)
					inList[id] = true
				}
			case 2:
				if got := l.PopBack(); len(model) == 0 {
					if got != -1 {
						return false
					}
				} else {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					delete(inList, want)
					if got != want {
						return false
					}
				}
			case 3:
				if inList[id] {
					l.Remove(id)
					for i, v := range model {
						if v == id {
							model = append(model[:i], model[i+1:]...)
							break
						}
					}
					delete(inList, id)
				}
			}
			if l.Len() != len(model) {
				return false
			}
		}
		// Final order check.
		i := 0
		ok := true
		l.Each(func(id int64) bool {
			if i >= len(model) || model[i] != id {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMultiClockConservation: scans never lose or duplicate pages.
func TestPropertyMultiClockConservation(t *testing.T) {
	f := func(seed int64, passes uint8) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 40
		m := NewMultiClock(4, n)
		for i := int64(0); i < n; i++ {
			m.Add(i, r.Intn(4))
		}
		for p := 0; p < int(passes%10); p++ {
			m.Scan(r.Intn(n)+1, func(int64) bool { return r.Intn(2) == 0 })
			total := 0
			for _, l := range m.Levels {
				total += l.Len()
			}
			if total != n {
				return false
			}
			for i := int64(0); i < n; i++ {
				lv := m.Level(i)
				if lv < 0 || lv > 3 || !m.Levels[lv].Contains(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
