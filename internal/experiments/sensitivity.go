package experiments

import (
	"fmt"
	"math"

	"chrono/internal/core"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// This file implements the parameter sensitivity analyses of Figures 10d
// and 11b: each of Chrono's key parameters is swept over 2^-3 .. 2^3 of
// its default and the relative throughput is reported.

// SensitivityParams are the swept parameters, in the paper's order.
var SensitivityParams = []string{"Scan-Step", "Scan-Period", "P-Victim", "Delta-Step"}

// SensitivityMultipliers is the 2^-3..2^3 sweep grid.
var SensitivityMultipliers = []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}

// Param scales one of Chrono's SensitivityParams by Mult. It is part of
// a sensitivity cell's identity (RunSpec.Param).
type Param struct {
	Name string  `json:"name"`
	Mult float64 `json:"mult"`
}

// chronoWithParam builds a Chrono instance with one parameter scaled.
// Delta-Step only matters under semi-auto tuning, so that sweep uses the
// semi-auto configuration (as the paper's §5.1.4 notes for the semi-auto
// scheme).
func chronoWithParam(p Param, o RunOpts) (policy.Policy, error) {
	mult := p.Mult
	opt := core.Options{}
	switch p.Name {
	case "Scan-Step":
		stepPages := scan.DefaultStepPages(o.FastGB.Pages(o.PagesPerGB) + o.SlowGB.Pages(o.PagesPerGB))
		opt.Scan = scan.Config{StepPages: max(int(float64(stepPages)*mult), 1)}
	case "Scan-Period":
		opt.Scan = scan.Config{Period: simclock.Duration(float64(simclock.Minute) * mult)}
	case "P-Victim":
		opt.PVictim = 0.005 * mult
	case "Delta-Step":
		opt.Tuning = core.TuneSemiAuto
		opt.RateLimitMBps = 120
		opt.DeltaStep = math.Min(core.DefaultDeltaStep*mult, 0.98)
	default:
		return nil, fmt.Errorf("experiments: unknown sensitivity parameter %q", p.Name)
	}
	return core.New(opt), nil
}

// RunSensitivity sweeps each parameter on the given workload builder and
// returns a table of relative performance (throughput normalized to the
// default setting).
func RunSensitivity(title string, mkWorkload func() workload.Workload, o RunOpts) (*Sweep, error) {
	headers := []string{"Parameter"}
	for _, m := range SensitivityMultipliers {
		headers = append(headers, fmt.Sprintf("x%g", m))
	}
	t := report.NewTable(title, headers...)
	var cells []Cell
	for _, param := range SensitivityParams {
		for _, mult := range SensitivityMultipliers {
			cells = append(cells, Cell{
				Experiment: "sensitivity",
				Policy:     "Chrono",
				Workload:   mkWorkload,
				Param:      &Param{Name: param, Mult: mult},
			})
		}
	}
	thr, out, err := runCells(cells, o, false, throughput)
	if err != nil {
		return nil, err
	}
	for _, param := range SensitivityParams {
		// Normalize to the x1 column.
		t.AddRow(valueRow(param, thr[:len(SensitivityMultipliers)], 3)...)
		thr = thr[len(SensitivityMultipliers):]
	}
	t.Note = "relative performance vs default parameter value (x1)"
	return &Sweep{Tables: []*report.Table{t}, Outcome: out}, nil
}
