package experiments

import (
	"chrono/internal/engine"
	"chrono/internal/parallel"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/workload"
)

// This file implements the extension experiments beyond the paper's
// figures: the full Table 1 policy comparison (adding HeMem, FlexMem and
// Telescope, which the paper characterizes but does not evaluate) and the
// drifting-hotspot adaptivity study that exercises the "adapts to
// changing workload patterns" claim of §3.2.2 directly.

// extRow is one policy's row of the extended comparison. Its fields are
// exported because the F1 and PPR scores read the live engine, so the
// row is stored with its cell.
type extRow struct {
	Thr, FMAR, F1, PPR, Kernel float64
}

// extRecord reads a finished ext cell's row; Score needs its engine.
func extRecord(res *Result) extRow {
	_, f1, ppr := Score(res)
	m := res.Metrics
	return extRow{Thr: m.Throughput(), FMAR: m.FMAR() * 100, F1: f1,
		PPR: ppr, Kernel: m.KernelTimeFrac() * 100}
}

// headlineCell is the Figure 6a workload at R/W=70:30 under pol, the
// workload of the extended comparison and the seed sweep.
func headlineCell(experiment, pol string) Cell {
	return Cell{Experiment: experiment, Policy: pol, Workload: func() workload.Workload {
		return &workload.Pmbench{
			Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
			Mode: DefaultModeFor(pol),
		}
	}}
}

// RunExtendedComparison runs every Table 1 system on the headline pmbench
// workload and reports throughput, FMAR and identification quality.
func RunExtendedComparison(o RunOpts) (*Sweep, error) {
	t := report.NewTable(
		"Extension: all Table 1 systems on the Figure 6a workload (R/W=70:30)",
		"Policy", "Thr (Mop/s)", "vs Linux-NB", "FMAR (%)", "F1", "PPR", "Kernel (%)")
	cells := make([]Cell, len(ExtendedPolicies))
	for i, pol := range ExtendedPolicies {
		cells[i] = headlineCell("ext", pol)
	}
	rows, out, err := runCells(cells, o, true, extRecord)
	if err != nil {
		return nil, err
	}
	base := 1.0
	if b := rows[baselineIdx(ExtendedPolicies)]; b != nil {
		base = b.Thr
	}
	for i, pol := range ExtendedPolicies {
		r := rows[i]
		if r == nil {
			t.AddRow(pol, "FAILED", "FAILED", "FAILED", "FAILED", "FAILED", "FAILED")
			continue
		}
		t.AddRow(pol, r.Thr, r.Thr/base, r.FMAR, r.F1, r.PPR, r.Kernel)
	}
	t.Note = "Telescope/HeMem/FlexMem are extensions beyond the paper's evaluation; this workload's per-real-page " +
		"rates (~1-6 access/s) sit inside Telescope's 0~5/s resolution band (Table 1), so its streak profiler ranks it well here"
	return &Sweep{Tables: []*report.Table{t}, Outcome: out}, nil
}

// DriftResult captures one policy's behaviour under a moving hotspot.
type DriftResult struct {
	Policy string
	// FMARSeries samples FMAR-equivalent placement quality over time
	// (instantaneous hot-mass residency, so dips after each shift and
	// recovery speed are visible).
	FMARSeries stats.Series
	Metrics    *engine.Metrics
}

// RunDrift runs the drifting-hotspot scenario: the Gaussian centre jumps
// a quarter of the address space every shiftEvery seconds, and placement
// quality is sampled every 10 s.
func RunDrift(policies []string, shiftEveryS float64, o RunOpts) ([]*DriftResult, error) {
	o = o.withDefaults()
	jobs := make([]func() (*DriftResult, error), len(policies))
	for i, pol := range policies {
		pol := pol
		jobs[i] = func() (*DriftResult, error) {
			w := &workload.Pmbench{
				Processes: 16, WorkingSetGB: 15, ReadPct: 70, Stride: 2,
				DriftPeriodS: shiftEveryS,
				Mode:         DefaultModeFor(pol),
			}
			p, err := NewPolicy(pol)
			if err != nil {
				return nil, err
			}
			e, err := Build(p, w, o)
			if err != nil {
				return nil, err
			}
			dr := &DriftResult{Policy: pol}
			e.Clock().EveryKey("experiments/drift-sample", 10*simclock.Second, func(now simclock.Time) {
				cls := classifySnapshot(e, w)
				dr.FMARSeries.Append(now.Seconds(), cls.Recall())
			})
			dr.Metrics = e.Run(o.Duration)
			return dr, nil
		}
	}
	return parallel.MapCtx(o.ctx(), o.Workers, jobs)
}

// DriftTable renders the adaptivity study.
func DriftTable(results []*DriftResult) *report.Table {
	t := report.NewTable(
		"Extension: drifting hotspot (centre jumps 25% of the space periodically)",
		"Policy", "Thr (Mop/s)", "Mean hot residency", "Min after shifts", "Residency history")
	for _, r := range results {
		minV := 1.0
		// Skip the warm-up third when looking for post-shift dips.
		start := len(r.FMARSeries.V) / 3
		for _, v := range r.FMARSeries.V[start:] {
			if v < minV {
				minV = v
			}
		}
		t.AddRow(r.Policy, r.Metrics.Throughput(),
			stats.Mean(r.FMARSeries.V), minV,
			report.Sparkline(report.Downsample(r.FMARSeries.V, 36)))
	}
	t.Note = "hot residency = recall of the live hot set; sawtooth dips mark hotspot shifts, slope after each dip is adaptation speed"
	return t
}
