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
// with the list a DeleteFunc over page tiers leaves, and the order it
// walks with a fresh sort of that list.
type pruneCheck struct {
	policy.Kernel
	t *testing.T
	p *Policy
	// prev is the candidate list as demoteForSpace found it; armed until
	// the walk's first TryDemote, which sees the pruned list.
	prev  []coldPage
	armed bool

	walks, pruned, dry int
	// inOrder and sorted count the walks of a list already in counter
	// order and of a sorted copy.
	inOrder, sorted int
}

// Node is demoteForSpace's first kernel call.
func (k *pruneCheck) Node() *mem.Node {
	k.prev = append(k.prev[:0], k.p.cold[k.p.front:]...)
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
		if live := k.p.cold[k.p.front:]; !slices.Equal(live, want) {
			k.t.Fatalf("walk %d: tracked candidates (%d) differ from a tier rescan (%d)", k.walks, len(live), len(want))
		}
		if k.p.inOrder {
			k.inOrder++
		} else {
			k.sorted++
		}
		sorted := slices.Clone(want)
		slices.SortFunc(sorted, coldestFirst)
		if !slices.Equal(k.p.walkOrder(), sorted) {
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
// plan, and on the quick drift cell (240 s), and checks every demotion
// walk's candidates against a rescan and its order against a fresh sort.
// The rotation cell's cold counters are all 0, so its walks take the
// in-order list; the drift cell's huge-page counters also reach the
// sorted copy. The clean rotation run must also reach the dry stop; the
// faulted one, whose injector draws precede the token check, never may.
func TestDepartedMatchesRescan(t *testing.T) {
	rotation := func(e *engine.Engine) error { return (&workload.Rotation{}).Build(e) }
	drift := func(e *engine.Engine) error {
		return (&workload.Pmbench{
			Processes: 16, WorkingSetGB: 15, ReadPct: 70, Stride: 2,
			DriftPeriodS: 240, Mode: engine.HugePages,
		}).Build(e)
	}
	for _, tc := range []struct {
		name  string
		build func(*engine.Engine) error
		secs  int
		plan  faultinject.Plan
		// dry is whether the walks must reach the dry stop (1) or
		// never may (-1); 0 leaves it unchecked.
		dry int
		// sorted requires walks of a sorted copy; every cell must walk
		// an in-order list.
		sorted bool
	}{
		{"clean", rotation, 60, faultinject.Plan{}, 1, false},
		{"aggressive", rotation, 60, faultinject.Aggressive(), -1, false},
		{"drift", drift, 240, faultinject.Plan{}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.Config{
				Seed: 42, PagesPerGB: 256, FastGB: 64, SlowGB: 192, Faults: tc.plan,
			})
			if err := tc.build(e); err != nil {
				t.Fatal(err)
			}
			p := New()
			e.AttachPolicy(p)
			k := &pruneCheck{Kernel: p.k, t: t, p: p}
			p.k = k
			e.Run(simclock.Duration(tc.secs) * simclock.Second)
			if k.walks == 0 || k.pruned == 0 {
				t.Fatalf("%d walks, %d with departures: the check never ran", k.walks, k.pruned)
			}
			if tc.dry != 0 && (k.dry > 0) != (tc.dry > 0) {
				t.Fatalf("%d dry stops, want them: %v", k.dry, tc.dry > 0)
			}
			t.Logf("%d walks (%d in order, %d sorted), %d pruned, %d dry stops",
				k.walks, k.inOrder, k.sorted, k.pruned, k.dry)
			if k.inOrder == 0 || (tc.sorted && k.sorted == 0) {
				t.Fatalf("%d in-order and %d sorted walks: a path went unchecked", k.inOrder, k.sorted)
			}
		})
	}
}
