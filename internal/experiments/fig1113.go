package experiments

import (
	"fmt"

	"chrono/internal/engine"
	"chrono/internal/report"
	"chrono/internal/units"
	"chrono/internal/workload"
)

// This file implements the Figure 11 (Graph500 macrobenchmark) and
// Figure 13 (design choice analysis) harnesses.

// Fig11Sizes are the working-set sizes of Figure 11a in GB.
var Fig11Sizes = []units.GB{128, 192, 256}

// RunFig11a runs Graph500 across working-set sizes and page granularities
// for every policy, reporting execution time (lower is better).
func RunFig11a(policies []string, o RunOpts) (*Sweep, error) {
	t := report.NewTable("Figure 11a: Graph500 execution time (s)",
		append([]string{"Config"}, policies...)...)
	modes := []struct {
		name string
		m    engine.PageSizeMode
	}{{"base", engine.BasePages}, {"huge", engine.HugePages}}
	var cells []Cell
	for _, size := range Fig11Sizes {
		for _, mode := range modes {
			for _, pol := range policies {
				cells = append(cells, Cell{
					Experiment: fmt.Sprintf("fig11/%.0fGB-%s", size, mode.name),
					Policy:     pol,
					Workload:   func() workload.Workload { return &workload.Graph500{TotalGB: size, Mode: mode.m} },
				})
			}
		}
	}
	times, out, err := runCells(cells, o, false, func(res *Result) float64 {
		return res.Workload.(*workload.Graph500).ExecutionTime(res.Metrics)
	})
	if err != nil {
		return nil, err
	}
	for _, size := range Fig11Sizes {
		for _, mode := range modes {
			t.AddRow(valueRow(fmt.Sprintf("%.0fGB-%s", size, mode.name), times[:len(policies)], -1)...)
			times = times[len(policies):]
		}
	}
	t.Note = "fixed work at the measured average throughput; the paper enforces base pages in the -base rows for all systems"
	return &Sweep{Tables: []*report.Table{t}, Outcome: out}, nil
}

// RunFig11b is the Graph500 sensitivity analysis.
func RunFig11b(o RunOpts) (*Sweep, error) {
	return RunSensitivity("Figure 11b: Graph500 sensitivity analysis",
		func() workload.Workload { return &workload.Graph500{TotalGB: 256} }, o)
}

// RunFig10d is the pmbench sensitivity analysis.
func RunFig10d(o RunOpts) (*Sweep, error) {
	return RunSensitivity("Figure 10d: pmbench sensitivity analysis", func() workload.Workload {
		return &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2}
	}, o)
}

// Fig13Variants are the design-choice configurations of §5.4.
var Fig13Variants = []string{
	"Linux-NB", "Chrono-basic", "Chrono-twice", "Chrono-thrice", "Chrono-full", "Chrono-manual",
}

// RunFig13 reproduces the design choice analysis: pmbench throughput of
// the Chrono variants across R/W ratios, normalized to Linux-NB.
func RunFig13(o RunOpts) (*Sweep, error) {
	t := report.NewTable("Figure 13: design choice analysis (normalized throughput)",
		append([]string{"R/W ratio"}, Fig13Variants...)...)
	var cells []Cell
	for _, ratio := range RWRatios {
		for _, pol := range Fig13Variants {
			cells = append(cells, Cell{
				Experiment: "fig13/rw=" + RatioLabel(ratio),
				Policy:     pol,
				Workload: func() workload.Workload {
					return &workload.Pmbench{
						Processes: 50, WorkingSetGB: 5, ReadPct: ratio, Stride: 2,
						Mode: DefaultModeFor(pol),
					}
				},
			})
		}
	}
	thr, out, err := runCells(cells, o, false, throughput)
	if err != nil {
		return nil, err
	}
	for _, ratio := range RWRatios {
		t.AddRow(valueRow(RatioLabel(ratio), thr[:len(Fig13Variants)], 0)...)
		thr = thr[len(Fig13Variants):]
	}
	return &Sweep{Tables: []*report.Table{t}, Outcome: out}, nil
}
