// Package policytest provides the shared scaffolding for baseline-policy
// integration tests: a small deterministic engine with a known two-level
// access pattern (a clearly hot head and a cold tail) plus helpers to
// evaluate placement quality.
package policytest

import (
	"encoding/json"
	"slices"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// World is a ready-to-run test system.
type World struct {
	Engine *engine.Engine
	Proc   *vm.Process
	// HotPages is the number of leading pages that carry HotWeight each;
	// the rest carry 1.
	HotPages  uint64
	HotWeight float64
}

// Build creates a world: 4 GB fast + 12 GB slow (1024 + 3072 pages at
// scale 256), one process with `total` pages of which the first `hot`
// carry weight 50. The hot head does not fit in the initially-fast
// region, so a correct policy must migrate.
func Build(t *testing.T, pol policy.Policy, total, hot uint64, mode engine.PageSizeMode) *World {
	t.Helper()
	e := engine.New(engine.Config{Seed: 77, FastGB: 4, SlowGB: 12})
	p := vm.NewProcess(1, "wl", total)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < total; i++ {
		w := 1.0
		// The hot region sits at the END of the address space, so the
		// initial fast-tier fill (front of the space) holds cold pages.
		if i >= total-hot {
			w = 50
		}
		p.SetPattern(start+i, w, 0.7)
	}
	e.AddProcess(p, 2)
	if err := e.MapAll(mode); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(pol)
	return &World{Engine: e, Proc: p, HotPages: hot, HotWeight: 50}
}

// Run advances virtual time.
func (w *World) Run(d simclock.Duration) *engine.Metrics {
	return w.Engine.Run(d)
}

// HotResidency reports the fraction of hot pages resident in the fast
// tier.
func (w *World) HotResidency() float64 {
	start := w.Proc.VMAs()[0].Start
	total := w.Proc.VMAs()[0].Len
	var fast, all float64
	for i := total - w.HotPages; i < total; i++ {
		pg := w.Proc.PageAt(start + i)
		if pg == nil {
			continue
		}
		all++
		if pg.Tier == mem.FastTier {
			fast++
		}
	}
	if all == 0 {
		return 0
	}
	return fast / all
}

// StateWith returns pol's marshaled checkpoint state with one top-level
// field replaced by v: the shape of a hand-edited or corrupted
// checkpoint file.
func StateWith(t *testing.T, pol policy.Policy, key string, v any) []byte {
	t.Helper()
	st, err := pol.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if fields[key], err = json.Marshal(v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// CheckGrouping runs one ByProcess pass of core outside its policy's
// schedule and fails t unless each process holding pages is visited once,
// with exactly the pages a fresh regroup of k's page table gives it, in ID
// order. The pass only reads counters, so calling it between events
// changes nothing about the run; a grouping kept past a page-set change
// (a page generation that failed to move) fails it.
func CheckGrouping(t testing.TB, core *policy.PEBS, k policy.Kernel) {
	t.Helper()
	want := map[*vm.Process][]*vm.Page{}
	for _, pg := range k.Pages() {
		if pg != nil {
			want[pg.Proc] = append(want[pg.Proc], pg)
		}
	}
	var cycles, visits int
	core.ByProcess(&cycles, func(proc *vm.Process, pages []*vm.Page, _ int) {
		visits++
		if !slices.Equal(pages, want[proc]) {
			t.Fatalf("pid %d: ByProcess hands %d pages, a fresh regroup %d", proc.PID, len(pages), len(want[proc]))
		}
	})
	if visits != len(want) {
		t.Fatalf("ByProcess visited %d processes, %d hold pages", visits, len(want))
	}
}

// CheckGroupingEachSecond arms CheckGrouping after the first event of
// every virtual second on e's clock, which covers every PEBS sampling
// period and classification pass. It returns the number of checks run so
// far.
func CheckGroupingEachSecond(t testing.TB, e *engine.Engine, core func() *policy.PEBS) func() int {
	checks, last := 0, simclock.Time(-1)
	e.Clock().SetAfterStep(func() {
		sec := e.Clock().Now() / simclock.Second * simclock.Second
		if sec == last {
			return
		}
		last = sec
		CheckGrouping(t, core(), e)
		checks++
	})
	return func() int { return checks }
}
