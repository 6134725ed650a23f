package engine

import (
	"encoding/json"
	"testing"

	"chrono/internal/vm"
)

// TestPagePointersStable: a *vm.Page taken from Pages() keeps its address
// and its contents while SplitHuge retires huge pages and its fragments
// open new arena chunks, and a snapshot restored into a fresh build keeps
// the fresh build's surviving pages at their addresses, overlaid with the
// snapshot's contents. The page generation moves with every split and
// restore.
func TestPagePointersStable(t *testing.T) {
	build := func() *Engine {
		e := newTestEngine(3)
		addUniformProc(e, 1, 3000, 0.6)
		if err := e.MapAll(HugePages); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(&recordingPolicy{})
		return e
	}
	e := build()
	var ptrs []*vm.Page
	var vals []vm.Page
	record := func(pgs []*vm.Page) {
		for _, pg := range pgs {
			ptrs = append(ptrs, pg)
			vals = append(vals, *pg)
		}
	}
	check := func(when string) {
		t.Helper()
		for i, pg := range ptrs {
			if *pg != vals[i] {
				t.Fatalf("%s: page %d changed: %+v, was %+v", when, vals[i].ID, *pg, vals[i])
			}
			if cur := e.Pages()[pg.ID]; cur != nil && cur != pg {
				t.Fatalf("%s: Pages()[%d] moved from %p to %p", when, pg.ID, pg, cur)
			}
		}
	}
	record(e.Pages())
	var huge []*vm.Page
	for _, pg := range e.Pages() {
		if pg.IsHuge() {
			huge = append(huge, pg)
		}
	}
	for _, pg := range huge {
		gen := e.PageGeneration()
		record(e.SplitHuge(pg))
		if e.PageGeneration() == gen {
			t.Fatalf("SplitHuge of page %d left the page generation at %d", pg.ID, gen)
		}
		check("after split of page " + itoa(int(pg.ID)))
	}
	if n := len(e.Pages()); n <= 2*pageChunk {
		t.Fatalf("%d pages never reach a third arena chunk", n)
	}

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded EngineState
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	fresh := build()
	before := append([]*vm.Page(nil), fresh.Pages()...)
	gen := fresh.PageGeneration()
	if err := fresh.Restore(&loaded); err != nil {
		t.Fatal(err)
	}
	if fresh.PageGeneration() == gen {
		t.Fatal("Restore left the page generation unchanged")
	}
	if len(fresh.Pages()) != len(e.Pages()) {
		t.Fatalf("restored table has %d slots, want %d", len(fresh.Pages()), len(e.Pages()))
	}
	for id, want := range e.Pages() {
		got := fresh.Pages()[id]
		if (got == nil) != (want == nil) {
			t.Fatalf("restored slot %d: live %v, want %v", id, got != nil, want != nil)
		}
		if got == nil {
			continue
		}
		if id < len(before) && got != before[id] {
			t.Fatalf("Restore moved page %d from %p to %p", id, before[id], got)
		}
		g, w := *got, *want
		if g.Proc.PID != w.Proc.PID {
			t.Fatalf("restored page %d is pid %d, want %d", id, g.Proc.PID, w.Proc.PID)
		}
		g.Proc, w.Proc = nil, nil
		if g != w {
			t.Fatalf("restored page %d = %+v, want %+v", id, g, w)
		}
	}
}
