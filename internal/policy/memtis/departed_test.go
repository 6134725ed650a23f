package memtis

import (
	"slices"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
	"chrono/internal/workload"
)

// pruneCheck wraps Memtis' kernel to compare, at every demotion walk,
// the candidate list demoteForSpace prunes from OnMigrated departures
// with the list a DeleteFunc over page tiers leaves.
type pruneCheck struct {
	policy.Kernel
	t *testing.T
	p *Policy
	// prev is the candidate list as demoteForSpace found it; armed until
	// the walk's first TryDemote, which sees the pruned list.
	prev  []coldPage
	armed bool

	walks, pruned, dry int
}

// Node is demoteForSpace's first kernel call.
func (k *pruneCheck) Node() *mem.Node {
	k.prev = append(k.prev[:0], k.p.cold...)
	k.armed = true
	return k.Kernel.Node()
}

// TryDemote checks the pruned lists before the walk's first demotion.
func (k *pruneCheck) TryDemote(pg *vm.Page) policy.MigrateResult {
	if k.armed {
		k.armed = false
		k.walks++
		n := len(k.prev)
		want := slices.DeleteFunc(k.prev, func(c coldPage) bool { return c.pg.Tier != mem.FastTier })
		if len(want) < n {
			k.pruned++
		}
		if !slices.Equal(k.p.cold, want) {
			k.t.Fatalf("walk %d: tracked candidates (%d) differ from a tier rescan (%d)", k.walks, len(k.p.cold), len(want))
		}
		sorted := slices.Clone(want)
		slices.SortFunc(sorted, coldestFirst)
		if !slices.Equal(k.p.byCount, sorted) {
			k.t.Fatalf("walk %d: coldest-first order differs from a fresh sort", k.walks)
		}
	}
	return k.Kernel.TryDemote(pg)
}

// MigrationsDry counts the dry answers the walks acted on.
func (k *pruneCheck) MigrationsDry() bool {
	dry := k.Kernel.MigrationsDry()
	if dry {
		k.dry++
	}
	return dry
}

// TestDepartedMatchesRescan runs Memtis on the adv rotation cell (60 s,
// seed 42, the adv engine scale) with and without the aggressive fault
// plan, and checks every demotion walk's candidates against a rescan.
// The clean run must also reach the dry stop; the faulted one, whose
// injector draws precede the token check, never may.
func TestDepartedMatchesRescan(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan faultinject.Plan
	}{{"clean", faultinject.Plan{}}, {"aggressive", faultinject.Aggressive()}} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.Config{
				Seed: 42, PagesPerGB: 256, FastGB: 64, SlowGB: 192, Faults: tc.plan,
			})
			if err := (&workload.Rotation{}).Build(e); err != nil {
				t.Fatal(err)
			}
			p := New()
			e.AttachPolicy(p)
			k := &pruneCheck{Kernel: p.k, t: t, p: p}
			p.k = k
			e.Run(60 * simclock.Second)
			if k.walks == 0 || k.pruned == 0 {
				t.Fatalf("%d walks, %d with departures: the check never ran", k.walks, k.pruned)
			}
			if dryWanted := tc.plan == (faultinject.Plan{}); (k.dry > 0) != dryWanted {
				t.Fatalf("%d dry stops, want them: %v", k.dry, dryWanted)
			}
			t.Logf("%d walks, %d pruned, %d dry stops", k.walks, k.pruned, k.dry)
		})
	}
}
