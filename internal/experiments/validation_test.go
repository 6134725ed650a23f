package experiments

// The validation suite is the regression harness for the paper's
// qualitative claims (EXPERIMENTS.md's "shape" column): if a future
// change to the engine or a policy breaks an ordering the paper
// establishes, one of these tests fails. They run longer simulations than
// the unit tests, so the heavyweight ones honor -short.

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestShapeFig6aOrdering: on the headline workload, Chrono must beat
// every baseline and Linux-NB must be (near-)worst; Memtis lands between.
func TestShapeFig6aOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape validation needs full-length runs")
	}
	thr := map[string]float64{}
	for _, pol := range StandardPolicies {
		w := &workload.Pmbench{
			Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
			Mode: DefaultModeFor(pol),
		}
		res, err := Run(pol, w, RunOpts{Duration: 600 * simclock.Second})
		if err != nil {
			t.Fatal(err)
		}
		thr[pol] = res.Metrics.Throughput()
	}
	if thr["Chrono"] < 1.5*thr["Linux-NB"] {
		t.Errorf("Chrono %.1f not >= 1.5x Linux-NB %.1f", thr["Chrono"], thr["Linux-NB"])
	}
	for _, pol := range StandardPolicies {
		if pol == "Chrono" {
			continue
		}
		if thr[pol] > thr["Chrono"] {
			t.Errorf("%s (%.1f) beats Chrono (%.1f) on the headline workload", pol, thr[pol], thr["Chrono"])
		}
	}
	if thr["Memtis"] < thr["Linux-NB"] {
		t.Errorf("Memtis (%.1f) below Linux-NB (%.1f)", thr["Memtis"], thr["Linux-NB"])
	}
}

// TestShapeWriteHeavyGrowsGap: the Chrono/NB ratio must grow as the write
// share grows (Optane's write asymmetry, §5.1.1).
func TestShapeWriteHeavyGrowsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("shape validation needs full-length runs")
	}
	ratio := func(readPct float64) float64 {
		var nb, ch float64
		for _, pol := range []string{"Linux-NB", "Chrono"} {
			w := &workload.Pmbench{
				Processes: 50, WorkingSetGB: 5, ReadPct: readPct, Stride: 2,
				Mode: DefaultModeFor(pol),
			}
			res, err := Run(pol, w, RunOpts{Duration: 600 * simclock.Second})
			if err != nil {
				t.Fatal(err)
			}
			if pol == "Linux-NB" {
				nb = res.Metrics.Throughput()
			} else {
				ch = res.Metrics.Throughput()
			}
		}
		return ch / nb
	}
	readHeavy := ratio(95)
	writeHeavy := ratio(5)
	if writeHeavy <= readHeavy {
		t.Errorf("write-heavy speedup %.2f not above read-heavy %.2f", writeHeavy, readHeavy)
	}
}

// TestShapeFig8Characteristics: the run-time characteristic orderings.
func TestShapeFig8Characteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("shape validation needs full-length runs")
	}
	type rt struct{ fmar, kern, cs float64 }
	get := map[string]rt{}
	for _, pol := range []string{"Linux-NB", "AutoTiering", "Multi-Clock", "Chrono"} {
		w := &workload.Pmbench{
			Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
			Mode: DefaultModeFor(pol),
		}
		res, err := Run(pol, w, RunOpts{Duration: 600 * simclock.Second})
		if err != nil {
			t.Fatal(err)
		}
		get[pol] = rt{res.Metrics.FMAR(), res.Metrics.KernelTimeFrac(), res.Metrics.ContextSwitchRate()}
	}
	if get["Chrono"].fmar <= get["Linux-NB"].fmar {
		t.Errorf("Chrono FMAR %.2f not above Linux-NB %.2f", get["Chrono"].fmar, get["Linux-NB"].fmar)
	}
	if get["AutoTiering"].kern <= get["Linux-NB"].kern {
		t.Errorf("AutoTiering kernel time %.3f not above Linux-NB %.3f (paper: 2.2x)",
			get["AutoTiering"].kern, get["Linux-NB"].kern)
	}
	if get["Multi-Clock"].cs >= get["Linux-NB"].cs/2 {
		t.Errorf("Multi-Clock context switches %.0f not far below Linux-NB %.0f",
			get["Multi-Clock"].cs, get["Linux-NB"].cs)
	}
	if get["Chrono"].cs >= get["Linux-NB"].cs {
		t.Errorf("Chrono context switches %.0f not below Linux-NB %.0f",
			get["Chrono"].cs, get["Linux-NB"].cs)
	}
}

// TestShapeFig9Monotone: under Chrono, tenant DRAM share declines with
// tenant coldness; under Memtis it is flat.
func TestShapeFig9Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("shape validation needs full-length runs")
	}
	results, err := RunFig9([]string{"Memtis", "Chrono"}, RunOpts{Duration: 1000 * simclock.Second})
	if err != nil {
		t.Fatal(err)
	}
	memtis, chrono := results[0], results[1]
	// Chrono: strong separation between the extremes.
	hot := chrono.Series[0].Tail(0.2)
	cold := chrono.Series[49].Tail(0.2)
	if hot < 2*cold {
		t.Errorf("Chrono tenant separation weak: hot %.1f vs cold %.1f", hot, cold)
	}
	// Memtis: flat — extremes within 15 percentage points.
	mh := memtis.Series[0].Tail(0.2)
	mc := memtis.Series[49].Tail(0.2)
	if mh-mc > 15 {
		t.Errorf("Memtis differentiates tenants (%.1f vs %.1f); process-level design should not", mh, mc)
	}
}

// TestShapeFig2bContrast: PEBS counters collapse on base pages.
func TestShapeFig2bContrast(t *testing.T) {
	s, err := RunFig2b(RunOpts{Duration: 240 * simclock.Second})
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.Tables[0]
	// Row 0 huge, row 1 base; column 3 is bin#4-5.
	hugeBin45 := tbl.Rows[0][3]
	baseBin45 := tbl.Rows[1][3]
	if hugeBin45 == "0" {
		t.Error("huge pages produced no stable (bin#4-5) counters")
	}
	if baseBin45 != "0" {
		t.Errorf("base pages produced stable counters (%s); budget model broken", baseBin45)
	}
}

// TestShapeProWatermark: Chrono's proactive demotion must keep more free
// fast-tier headroom than the vanilla high watermark alone.
func TestShapeProWatermark(t *testing.T) {
	w := &workload.Pmbench{Processes: 16, WorkingSetGB: 15, ReadPct: 70, Stride: 2}
	res, err := Run("Chrono", w, RunOpts{Duration: 300 * simclock.Second})
	if err != nil {
		t.Fatal(err)
	}
	node := res.Engine.Node()
	wm := node.Watermarks(mem.FastTier)
	if wm.Pro <= wm.High {
		t.Error("Chrono did not raise the pro watermark")
	}
	if node.Free(mem.FastTier) < wm.High {
		t.Errorf("fast tier free %d below high watermark %d despite proactive demotion",
			node.Free(mem.FastTier), wm.High)
	}
}
