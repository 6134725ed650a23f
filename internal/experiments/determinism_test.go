package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/vm"
	"chrono/internal/workload"
)

// The simulator's core contract is bit-level determinism: one seed, one
// result (see DESIGN.md "Determinism & correctness tooling"). This test
// is the regression fence for that contract — it runs the same
// configuration twice and demands byte-identical serialized metrics and
// an identical hash over the full ordered migration/fault event log, then
// checks a different seed actually changes the outcome (guarding against
// the trivial "deterministic because nothing is random" failure mode).

// loggingPolicy wraps a real policy and folds every event notification —
// in delivery order — into a hash. Any reordering of faults or
// migrations between two same-seed runs changes the digest.
type loggingPolicy struct {
	policy.Policy
	h hash.Hash
}

func (p *loggingPolicy) event(kind byte, words ...int64) {
	var buf [8]byte
	p.h.Write([]byte{kind})
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], uint64(w))
		p.h.Write(buf[:])
	}
}

func (p *loggingPolicy) OnFault(pg *vm.Page, now simclock.Time) {
	p.event('F', pg.ID, int64(pg.Proc.PID), int64(now))
	p.Policy.OnFault(pg, now)
}

func (p *loggingPolicy) OnMigrated(pg *vm.Page, from, to mem.TierID) {
	p.event('M', pg.ID, int64(from), int64(to))
	p.Policy.OnMigrated(pg, from, to)
}

// serializeMetrics renders every result-bearing field of a Metrics to a
// canonical string. %v on float64 prints the shortest exact
// representation, so two byte-identical serializations mean bit-identical
// values.
func serializeMetrics(m *engine.Metrics) string {
	return fmt.Sprintf(
		"dur=%v acc=%v fast=%v rd=%v wr=%v faults=%v promo=%v demo=%v "+
			"swapout=%v swapin=%v migbytes=%v ctxsw=%v kns=%v appns=%v "+
			"failp=%v faild=%v abortns=%v pebsdrop=%v mterr=%v "+
			"lat(tot=%v mean=%v p50=%v p99=%v) latr(tot=%v mean=%v) latw(tot=%v mean=%v)",
		m.Duration, m.Accesses, m.FastAccesses, m.Reads, m.Writes,
		m.Faults, m.Promotions, m.Demotions, m.SwapOuts, m.SwapIns,
		m.MigratedBytes, m.ContextSwitches, m.KernelNS, m.AppNS,
		m.FailedPromotions, m.FailedDemotions, m.AbortedMigrationNS,
		m.PEBSDropped, m.MoveTierErrors,
		m.Lat.Total(), m.Lat.Mean(), m.Lat.Percentile(0.50), m.Lat.Percentile(0.99),
		m.LatRead.Total(), m.LatRead.Mean(),
		m.LatWrite.Total(), m.LatWrite.Mean())
}

// fingerprint runs one short headline-style simulation and returns the
// serialized metrics and the event-log digest.
func fingerprint(t *testing.T, polName string, seed uint64) (string, [32]byte) {
	t.Helper()
	e := engine.New(engine.Config{Seed: seed, FastGB: 2, SlowGB: 6})
	w := &workload.Pmbench{
		Processes: 4, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
		Mode: DefaultModeFor(polName),
	}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	pol, err := NewPolicy(polName)
	if err != nil {
		t.Fatal(err)
	}
	lp := &loggingPolicy{Policy: pol, h: sha256.New()}
	e.AttachPolicy(lp)
	m := e.Run(60 * simclock.Second)
	var sum [32]byte
	lp.h.Sum(sum[:0])
	return serializeMetrics(m), sum
}

func TestSameSeedBitIdentical(t *testing.T) {
	for _, pol := range []string{"Chrono", "Memtis", "Linux-NB"} {
		t.Run(pol, func(t *testing.T) {
			m1, h1 := fingerprint(t, pol, 42)
			m2, h2 := fingerprint(t, pol, 42)
			if m1 != m2 {
				t.Errorf("same seed, different metrics:\n run1: %s\n run2: %s", m1, m2)
			}
			if h1 != h2 {
				t.Errorf("same seed, different event logs: %x vs %x", h1, h2)
			}
		})
	}
}

func TestDifferentSeedDiverges(t *testing.T) {
	m1, h1 := fingerprint(t, "Chrono", 42)
	m2, h2 := fingerprint(t, "Chrono", 43)
	if m1 == m2 && h1 == h2 {
		t.Errorf("seeds 42 and 43 produced identical runs — randomness is not flowing from the seed\nmetrics: %s", m1)
	}
}

// sweepFingerprint runs a small (policy × ratio) sweep at the given
// worker count under the given fault plan and serializes every cell's
// metrics in grid order. The parallel runner's contract is that this
// string is identical for every worker count (see DESIGN.md "Parallel
// sweeps") — and the fault injector's contract is that it stays so under
// injection, because every injection decision draws from the run's own
// seed-derived streams.
func sweepFingerprint(t *testing.T, workers int, plan faultinject.Plan) string {
	t.Helper()
	o := RunOpts{
		Seed: 42, FastGB: 2, SlowGB: 6,
		Duration: 45 * simclock.Second,
		Workers:  workers,
		Faults:   plan,
	}
	cfg := PmbenchConfig{Label: "determinism probe", Processes: 4, WorkingSetGB: 5}
	s, err := RunPmbenchSweep(cfg, []string{"Linux-NB", "Memtis", "Chrono"}, []float64{70, 30}, o)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for ri, row := range s.Results {
		for pi, res := range row {
			out += fmt.Sprintf("[%d,%d %s] %s\n", ri, pi, res.Policy, serializeMetrics(res.Metrics))
		}
	}
	return out
}

// TestParallelMatchesSerial is the determinism fence for the parallel
// experiment runner: a sweep fanned across 8 workers must produce
// byte-identical serialized metrics to the same sweep run serially.
func TestParallelMatchesSerial(t *testing.T) {
	serial := sweepFingerprint(t, 1, faultinject.Plan{})
	parallel8 := sweepFingerprint(t, 8, faultinject.Plan{})
	if serial != parallel8 {
		t.Errorf("workers=1 and workers=8 diverge:\n-- serial --\n%s\n-- parallel --\n%s", serial, parallel8)
	}
}

// TestFaultPlanDeterministic extends the fence to fault injection: with a
// fixed (seed, plan) the injected faults are part of the deterministic
// event stream, so the sweep is byte-identical run-to-run and across
// worker counts — and it must actually differ from the fault-free sweep,
// or the plan injected nothing.
func TestFaultPlanDeterministic(t *testing.T) {
	plan := faultinject.Aggressive()
	serial := sweepFingerprint(t, 1, plan)
	parallel8 := sweepFingerprint(t, 8, plan)
	if serial != parallel8 {
		t.Errorf("faulted sweep diverges across worker counts:\n-- serial --\n%s\n-- parallel --\n%s",
			serial, parallel8)
	}
	repeat := sweepFingerprint(t, 8, plan)
	if parallel8 != repeat {
		t.Errorf("same (seed, plan) produced different sweeps:\n-- run1 --\n%s\n-- run2 --\n%s",
			parallel8, repeat)
	}
	clean := sweepFingerprint(t, 1, faultinject.Plan{})
	if clean == serial {
		t.Error("aggressive fault plan left the sweep identical to fault-free — injection is inert")
	}
}
