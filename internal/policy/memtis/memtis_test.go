package memtis_test

import (
	"math"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestSamplingDrivesPromotion: with huge pages (its default deployment)
// Memtis identifies and promotes the hot region from PEBS counters alone
// — no hint faults.
func TestSamplingDrivesPromotion(t *testing.T) {
	w := policytest.Build(t, memtis.New(), 3072, 512, engine.HugePages)
	m := w.Run(600 * simclock.Second)
	if m.Faults != 0 {
		t.Fatalf("%v hint faults under Memtis", m.Faults)
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions from PEBS classification")
	}
	if res := w.HotResidency(); res < 0.4 {
		t.Fatalf("hot residency %.2f", res)
	}
	pol := w.Engine.Policy().(*memtis.Policy)
	if pol.Sampler().TotalSamples() == 0 {
		t.Fatal("sampler collected nothing")
	}
}

// TestBasePageInstability: at base-page granularity the same sample
// budget spreads over HugeFactor× more pages, so per-page counters
// collapse (Figure 2b) and placement quality degrades.
func TestBasePageInstability(t *testing.T) {
	huge := policytest.Build(t, memtis.New(), 3072, 512, engine.HugePages)
	base := policytest.Build(t, memtis.New(), 3072, 512, engine.BasePages)
	huge.Run(600 * simclock.Second)
	base.Run(600 * simclock.Second)
	hp := huge.Engine.Policy().(*memtis.Policy)
	bp := base.Engine.Policy().(*memtis.Policy)
	// The share of resident pages whose counter clears the stable-
	// classification bar (count >= 8, bin#4 of Figure 2b) must be far
	// larger under huge pages.
	share := func(e *engine.Engine, pol *memtis.Policy) float64 {
		var stable, total float64
		for _, pg := range e.Pages() {
			if pg == nil {
				continue
			}
			total++
			if pol.Sampler().Counter(pg.ID) >= 8 {
				stable++
			}
		}
		if total == 0 {
			return 0
		}
		return stable / total
	}
	hs := share(huge.Engine, hp)
	bs := share(base.Engine, bp)
	if hs < bs*4 || hs == 0 {
		t.Fatalf("stable-counter share: huge %.3f vs base %.3f", hs, bs)
	}
}

// TestSplittingIsConservative: splits happen, but only a handful per
// cycle.
func TestSplittingIsConservative(t *testing.T) {
	w := policytest.Build(t, memtis.New(), 3072, 512, engine.HugePages)
	before := len(w.Engine.Pages())
	w.Run(600 * simclock.Second)
	after := len(w.Engine.Pages())
	grew := after - before
	// 600s = 300 kmigrated cycles × split budget 2 × HugeFactor new
	// pages max; conservative splitting stays well under a full unfold.
	if grew > 0 && grew >= 3072 {
		t.Fatalf("splitting unfolded everything: %d new pages", grew)
	}
}

// TestRestoreRejectsCorruptSampler: a corrupted PEBS sampler snapshot is
// a restore error, not a panic that would take down a resuming daemon.
func TestRestoreRejectsCorruptSampler(t *testing.T) {
	pol := memtis.New()
	policytest.Build(t, pol, 3072, 512, engine.HugePages)
	for _, sampler := range []string{
		`{"len":4,"idx":[1,2],"count":[5]}`,
		`{"len":4,"idx":[-1],"count":[5]}`,
		`{"len":4,"idx":[1099511627776],"count":[5]}`,
		`{"len":1099511627776}`,
	} {
		data := `{"sampler":` + sampler + `,"periods":1,"cycles":1,"transient_skips":0}`
		if err := pol.RestoreCheckpoint([]byte(data)); err == nil {
			t.Errorf("restore of sampler %s succeeded", sampler)
		}
	}
}

// TestRestoreRejectsBadCycles: kmigrated rotates its process order by
// the cycle count modulo the process count, so a negative count in a
// checkpoint is a restore error, not an index panic at the next cycle.
func TestRestoreRejectsBadCycles(t *testing.T) {
	pol := memtis.New()
	e, err := experiments.Build(pol, &workload.MultiTenant{Tenants: 8}, experiments.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{-7, -1, math.MaxInt} {
		if err := pol.RestoreCheckpoint(policytest.StateWith(t, pol, "cycles", c)); err == nil {
			t.Errorf("restore of cycles %d succeeded", c)
		}
	}
	if err := pol.RestoreCheckpoint(policytest.StateWith(t, pol, "cycles", 7)); err != nil {
		t.Fatal(err)
	}
	e.Run(5 * simclock.Second) // two kmigrated cycles over eight tenants
}
