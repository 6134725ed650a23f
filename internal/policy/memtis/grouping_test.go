package memtis

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestGroupingKeptUntilPagesChange runs Memtis on huge pages, where
// kmigrated's splitHot creates and frees pages in the middle of a
// ByProcess pass, and checks every second that the grouping ByProcess
// keeps equals a fresh regroup of the page table.
func TestGroupingKeptUntilPagesChange(t *testing.T) {
	e := engine.New(engine.Config{Seed: 42, FastGB: 8, SlowGB: 24})
	if err := (&workload.Pmbench{
		Processes: 4, WorkingSetGB: 4, ReadPct: 70, Stride: 2, Mode: engine.HugePages,
	}).Build(e); err != nil {
		t.Fatal(err)
	}
	p := New()
	e.AttachPolicy(p)
	mapped := len(e.Pages())
	checks := policytest.CheckGroupingEachSecond(t, e, func() *policy.PEBS { return p.core })
	e.Run(60 * simclock.Second)
	if checks() < 60 {
		t.Fatalf("%d checks in 60 virtual seconds", checks())
	}
	if len(e.Pages()) == mapped {
		t.Fatal("no huge page was split: the mid-pass page changes went unchecked")
	}
	t.Logf("%d checks, %d page slots after splits (%d mapped)", checks(), len(e.Pages()), mapped)
}
