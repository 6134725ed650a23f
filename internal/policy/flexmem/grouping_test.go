package flexmem

import (
	"encoding/json"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestGroupingAcrossRestore checks the grouping ByProcess keeps against a
// fresh regroup across a mid-run restore. The fresh FlexMem build groups
// its own page table first, so the grouping is held when the restore
// replaces the pages under it: restored from a FlexMem run, and swapped
// in from a Memtis run whose splits left a different page set (a swap
// restores no policy state, so only the page generation can drop the
// grouping). Each resumed run is then checked every second.
func TestGroupingAcrossRestore(t *testing.T) {
	const (
		mid = 30 * simclock.Second
		dur = 60 * simclock.Second
	)
	build := func(pol policy.Policy) *engine.Engine {
		e := engine.New(engine.Config{Seed: 42, FastGB: 8, SlowGB: 24})
		if err := (&workload.Pmbench{
			Processes: 4, WorkingSetGB: 4, ReadPct: 70, Stride: 2, Mode: engine.HugePages,
		}).Build(e); err != nil {
			t.Fatal(err)
		}
		e.AttachPolicy(pol)
		return e
	}
	for _, tc := range []struct {
		name string
		from func() policy.Policy
		swap bool
	}{
		{"restore", func() policy.Policy { return New() }, false},
		{"swap-from-memtis", func() policy.Policy { return memtis.New() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			victim := build(tc.from())
			var snap *engine.EngineState
			victim.Clock().SetAfterStep(func() {
				if snap == nil && victim.Clock().Now() >= mid {
					s, err := victim.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					snap = s
				}
			})
			victim.Run(dur)
			if snap == nil {
				t.Fatal("snapshot hook never fired")
			}
			blob, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var st engine.EngineState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}

			p := New()
			e := build(p)
			policytest.CheckGrouping(t, p.core, e)
			if tc.swap {
				if len(st.Pages.ID) == len(e.Pages()) {
					t.Fatal("the Memtis run split no page: the swap keeps the page set")
				}
				_, err = e.RestoreSwap(&st)
			} else {
				err = e.Restore(&st)
			}
			if err != nil {
				t.Fatal(err)
			}
			policytest.CheckGrouping(t, p.core, e)
			checks := policytest.CheckGroupingEachSecond(t, e, func() *policy.PEBS { return p.core })
			e.ResumeRun()
			if checks() < 25 {
				t.Fatalf("%d checks after the restore", checks())
			}
		})
	}
}
