package experiments

// Acceptance fences for the anti-thrashing work (the robustness PR's
// headline claims):
//
//   - On capacity oscillation, every baseline with the thrash guard
//     enabled moves strictly fewer migration bytes than without it, at
//     equal-or-better fast-memory access ratio. All runs are
//     deterministic, so these are exact comparisons, not statistics.
//   - Nomad's clean shadow demotions are accounted as zero-copy: its
//     migration byte counter covers exactly the copying moves.
//   - Nomad's abort-on-write never leaves a page double-resident, even
//     under an aggressive fault plan (the engine's invariant sanitizer
//     checks shadow/residency consistency on every event).

import (
	"testing"

	"chrono/internal/faultinject"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestShapeGuardOscillation: the guard must pay for itself on the
// canonical ping-pong generator — strictly lower migration bandwidth,
// FMAR no worse — for every baseline it composes onto.
func TestShapeGuardOscillation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("shape validation needs full-length runs; deterministic, so race adds nothing")
	}
	for _, base := range []string{"TPP", "Memtis", "FlexMem", "Chrono"} {
		base := base
		t.Run(base, func(t *testing.T) {
			t.Parallel()
			run := func(pol string) (mig, fmar float64) {
				res, err := Run(pol, &workload.Oscillation{}, RunOpts{Duration: 600 * simclock.Second})
				if err != nil {
					t.Fatal(err)
				}
				return res.Metrics.MigratedBytes, res.Metrics.FMAR()
			}
			bareMig, bareFMAR := run(base)
			guardMig, guardFMAR := run(base + "+guard")
			if guardMig >= bareMig {
				t.Errorf("guard did not cut migration bandwidth: %.1f GB vs %.1f GB bare",
					guardMig/(1<<30), bareMig/(1<<30))
			}
			if guardFMAR < bareFMAR {
				t.Errorf("guard cost FMAR: %.2f%% vs %.2f%% bare", guardFMAR*100, bareFMAR*100)
			}
		})
	}
}

// TestNomadZeroCopyAccounting: clean shadow demotions are zero-copy
// remaps, so the migration byte counter must equal exactly one page copy
// per promotion plus one per *copying* demotion — shadow demotions
// contribute nothing.
func TestNomadZeroCopyAccounting(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("needs a full-length run; deterministic, so race adds nothing")
	}
	res, err := Run("Nomad", &workload.Oscillation{}, RunOpts{Duration: 600 * simclock.Second})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.ShadowDemotions == 0 {
		t.Fatal("no shadow demotions — the transactional path never exercised")
	}
	if m.NomadAborts == 0 {
		t.Fatal("no aborted transactions — abort-on-write never exercised")
	}
	pageBytes := res.Engine.Node().PageSizeBytes
	want := float64((m.Promotions + m.Demotions) * pageBytes)
	if m.MigratedBytes != want {
		t.Fatalf("migration bytes %.0f != %d copying moves × %d B = %.0f — shadow demotions not zero-copy?",
			m.MigratedBytes, m.Promotions+m.Demotions, pageBytes, want)
	}
}

// TestNomadAbortSoak: oscillation under an aggressive fault plan with the
// invariant sanitizer forced on (the same checks -tags simdebug enables
// permanently). Invariant 7 asserts after every event that no page is
// resident in both tiers and that the shadow ledger reconciles, so a
// buggy abort or commit path panics the run.
func TestNomadAbortSoak(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("soak needs a full-length run; TestChaosAdversarialOscillation covers the path under race")
	}
	res, err := Run("Nomad", &workload.Oscillation{}, RunOpts{
		Duration:    600 * simclock.Second,
		Faults:      faultinject.Aggressive(),
		DebugChecks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.NomadAborts == 0 {
		t.Fatal("aggressive plan produced no transaction aborts — soak toothless")
	}
}

// TestChaosAdversarialOscillation extends the chaos job's fault-matrix
// soak to the adversarial suite: every baseline with and without the
// thrash guard, plus Nomad, runs capacity oscillation under the
// aggressive fault plan with the invariant sanitizer forced on. Like
// TestFaultMatrixSoak, the assertions are coarse — terminate, do real
// work, inject real faults — because the point is the absence of panics,
// stalls, and sanitizer trips while migrations abort under the guard's
// and the transaction machinery's feet.
func TestChaosAdversarialOscillation(t *testing.T) {
	for _, pol := range AdversarialPolicies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			o := RunOpts{
				Duration:    soakDuration(),
				Faults:      faultinject.Aggressive(),
				DebugChecks: true,
			}
			res, err := Run(pol, &workload.Oscillation{}, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Accesses == 0 {
				t.Fatal("soak run simulated no accesses")
			}
			inj := res.Engine.Injector()
			if inj == nil {
				t.Fatal("aggressive plan built no injector")
			}
			if inj.Total() == 0 && !testing.Short() {
				t.Fatal("aggressive plan injected no faults")
			}
		})
	}
}

// TestAdversarialSweepSmoke: the sweep harness itself — every cell of a
// shortened policies × scenarios grid completes and lands real numbers in
// the tables (regression fence for the reproduce "adv" experiment).
func TestAdversarialSweepSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweep smoke runs the full grid; deterministic, so race adds nothing")
	}
	s, err := RunAdversarial(RunOpts{Duration: 60 * simclock.Second, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failed) != 0 {
		t.Fatalf("%d cells failed: %+v", len(s.Failed), s.Failed[0])
	}
	if len(s.Tables) != len(AdversarialScenarios) {
		t.Fatalf("%d tables, want %d", len(s.Tables), len(AdversarialScenarios))
	}
	for _, tb := range s.Tables {
		if len(tb.Rows) != len(AdversarialPolicies) {
			t.Fatalf("%s: %d rows, want %d", tb.Title, len(tb.Rows), len(AdversarialPolicies))
		}
	}
}

// TestBuildAllocsPerChunk: building an adv cell allocates its page table
// in bulk. Pages come from the engine's 256-page arena chunks and every
// per-page column is sized once, so the allocation count of a Build is
// bounded by its chunk count plus a constant for the engine, processes
// and policy, not by its page count (one allocation per page before).
func TestBuildAllocsPerChunk(t *testing.T) {
	const (
		pageChunk = 256 // engine's page-arena chunk
		fixed     = 250 // engine, processes, tickers and policy
	)
	for _, pol := range []string{"Memtis", "Chrono+guard"} {
		var pages int
		allocs := testing.AllocsPerRun(3, func() {
			p, err := NewPolicy(pol)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Build(p, &workload.Rotation{}, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			pages = len(e.Pages())
		})
		if limit := float64(pages/pageChunk + fixed); allocs > limit {
			t.Fatalf("%s: Build of %d pages allocates %.0f times, want at most %.0f", pol, pages, allocs, limit)
		}
		t.Logf("%s: %d pages, %.0f allocations", pol, pages, allocs)
	}
}
