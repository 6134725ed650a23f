package experiments

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// Fault-matrix soak: every registered policy runs under the aggressive
// fault plan with the invariant sanitizer forced on. The assertions are
// deliberately coarse — the run terminates, simulates real work, and the
// injector actually fired — because the point is what does NOT happen:
// no stall, no panic, no sanitizer trip while ~20% of migrations abort
// under the policy's feet.

func soakDuration() simclock.Duration {
	if testing.Short() {
		return 15 * simclock.Second
	}
	return 45 * simclock.Second
}

func TestFaultMatrixSoak(t *testing.T) {
	// Migration-abort coverage is asserted over the whole matrix rather
	// than per policy: slow-scanning policies (Chrono's 60 s scan period)
	// legitimately attempt few migrations inside a short soak.
	var busyTotal atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && busyTotal.Load() == 0 {
			t.Error("no policy drew a migration-busy fault across the whole matrix")
		}
	})
	for _, pol := range ExtendedPolicies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			o := RunOpts{
				Seed: 42, FastGB: 2, SlowGB: 6,
				Duration:    soakDuration(),
				Faults:      faultinject.Aggressive(),
				DebugChecks: true,
			}
			w := &workload.Pmbench{
				Processes: 4, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
				Mode: DefaultModeFor(pol),
			}
			res, err := Run(pol, w, o)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.Accesses == 0 {
				t.Fatal("soak run simulated no accesses")
			}
			inj := res.Engine.Injector()
			if inj == nil {
				t.Fatal("aggressive plan built no injector")
			}
			// Slow-starting policies (TPP's fault-driven promotion) may
			// legitimately reach no injection point inside the -short
			// window; the full-length soak demands real injections.
			if inj.Total() == 0 && !testing.Short() {
				t.Fatal("aggressive plan injected no faults")
			}
			busyTotal.Add(inj.Count(faultinject.MigrationBusy))
		})
	}
}

// TestFaultMatrixZeroPlanUntouched: the zero plan must leave runs
// byte-identical to a fault-free build — the fault counters stay zero and
// no injector exists to consume entropy.
func TestFaultMatrixZeroPlanUntouched(t *testing.T) {
	o := RunOpts{Seed: 42, FastGB: 2, SlowGB: 6, Duration: 30 * simclock.Second}
	w := &workload.Pmbench{Processes: 4, WorkingSetGB: 5, ReadPct: 70, Stride: 2}
	res, err := Run("Chrono", w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Injector() != nil {
		t.Fatal("zero plan built an injector")
	}
	m := res.Metrics
	if m.FailedPromotions != 0 || m.FailedDemotions != 0 || m.AbortedMigrationNS != 0 {
		t.Fatalf("zero plan produced failure accounting: %+v", m)
	}
}

// crashWorkload is a workload that schedules a panic at a virtual time —
// the stand-in for a policy/engine bug that only a mid-run event exposes.
type crashWorkload struct {
	workload.Pmbench
	at simclock.Duration
}

func (w *crashWorkload) Name() string { return "crash" }

func (w *crashWorkload) Build(e *engine.Engine) error {
	if err := w.Pmbench.Build(e); err != nil {
		return err
	}
	e.Clock().AtKey(e.Clock().Now()+w.at, "test/crash", 0, 0, func(simclock.Time) { panic("injected test crash") })
	return nil
}

func mkCrashWorkload() workload.Workload {
	return &crashWorkload{
		Pmbench: workload.Pmbench{Processes: 2, WorkingSetGB: 2, ReadPct: 70, Stride: 2},
		at:      5 * simclock.Second,
	}
}

func TestResilientRunCapturesPanic(t *testing.T) {
	o := RunOpts{Seed: 42, FastGB: 2, SlowGB: 6, Duration: 30 * simclock.Second}
	res, failed, err := ResilientRun(Cell{Experiment: "crash-probe", Policy: "Linux-NB", Workload: mkCrashWorkload}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("crashing run returned a result")
	}
	if failed == nil {
		t.Fatal("crashing run produced no failure bundle")
	}
	// Default retries = 1, so the deterministic crash was attempted twice.
	if failed.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (1 + default retry)", failed.Attempts)
	}
	if failed.EventsFired == 0 {
		t.Fatal("event-count watermark not captured")
	}
	if !strings.Contains(failed.PanicValue, "injected test crash") {
		t.Fatalf("panic value not captured: %q", failed.PanicValue)
	}
	if failed.Spec.Policy != "Linux-NB" || failed.Spec.Seed != 42 {
		t.Fatalf("repro spec incomplete: %+v", failed.Spec)
	}
	// The bundle must serialize: it is written into the failure manifest.
	if _, jerr := json.Marshal(failed); jerr != nil {
		t.Fatalf("failure bundle not serializable: %v", jerr)
	}
}

func TestResilientRunConfigErrorNotRetried(t *testing.T) {
	o := RunOpts{Seed: 42, Duration: simclock.Second}
	mk := func() workload.Workload {
		return &workload.Pmbench{Processes: 1, WorkingSetGB: 1, ReadPct: 70, Stride: 2}
	}
	_, failed, err := ResilientRun(Cell{Experiment: "bad-policy", Policy: "NoSuchPolicy", Workload: mk}, o)
	if err == nil {
		t.Fatal("unknown policy did not surface an error")
	}
	if failed != nil {
		t.Fatal("config error was treated as a crash")
	}
}

// TestSweepRendersWithFailedCells: a sweep with crashed cells must still
// render every table, marking the holes instead of dying — including when
// the baseline itself is the hole.
func TestSweepRendersWithFailedCells(t *testing.T) {
	o := RunOpts{
		Seed: 42, FastGB: 2, SlowGB: 6,
		Duration: 20 * simclock.Second,
		Workers:  4,
	}
	cfg := PmbenchConfig{Label: "failure rendering probe", Processes: 2, WorkingSetGB: 2}
	s, err := RunPmbenchSweep(cfg, []string{"Linux-NB", "Chrono"}, []float64{70, 30}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failed) != 0 {
		t.Fatalf("clean sweep reported failures: %v", s.Failed)
	}
	// Knock out one non-baseline cell, then the baseline itself.
	s.Results[0][1] = nil
	for _, tb := range append(s.LatencyTables(),
		s.ThroughputTable(), s.BaselineLatencyCDF(), s.RuntimeCharacteristics()) {
		if tb == nil {
			t.Fatal("renderer returned nil table with a failed cell")
		}
	}
	if got := s.ThroughputTable().String(); !strings.Contains(got, "FAILED") {
		t.Fatalf("failed cell not marked in throughput table:\n%s", got)
	}
	s.Results[0][0] = nil
	s.Results[1][0] = nil
	cdf := s.BaselineLatencyCDF()
	if !strings.Contains(cdf.Note, "baseline run failed") {
		t.Fatalf("missing-baseline CDF note = %q", cdf.Note)
	}
	_ = s.ThroughputTable()
	_ = s.LatencyTables()
	_ = s.RuntimeCharacteristics()
}
