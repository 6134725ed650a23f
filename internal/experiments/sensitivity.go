package experiments

import (
	"fmt"
	"math"

	"chrono/internal/core"
	"chrono/internal/parallel"
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

// chronoWithParam builds a Chrono instance with one parameter scaled by
// mult. Delta-Step only matters under semi-auto tuning, so that sweep
// uses the semi-auto configuration (as the paper's §5.1.4 notes for the
// semi-auto scheme).
func chronoWithParam(param string, mult float64, stepPages int) (policy.Policy, error) {
	opt := core.Options{}
	switch param {
	case "Scan-Step":
		opt.Scan = scan.Config{StepPages: int(float64(stepPages) * mult)}
		if opt.Scan.StepPages < 1 {
			opt.Scan.StepPages = 1
		}
	case "Scan-Period":
		opt.Scan = scan.Config{Period: simclock.Duration(float64(simclock.Minute) * mult)}
	case "P-Victim":
		opt.PVictim = 0.005 * mult
	case "Delta-Step":
		opt.Tuning = core.TuneSemiAuto
		opt.RateLimitMBps = 120
		opt.DeltaStep = math.Min(0.5*mult, 0.98)
	default:
		return nil, fmt.Errorf("experiments: unknown sensitivity parameter %q", param)
	}
	return core.New(opt), nil
}

// RunSensitivity sweeps each parameter on the given workload builder and
// returns a table of relative performance (throughput normalized to the
// default setting).
func RunSensitivity(title string, mkWorkload func() workload.Workload, o RunOpts) (*report.Table, error) {
	o = o.withDefaults()
	headers := []string{"Parameter"}
	for _, m := range SensitivityMultipliers {
		headers = append(headers, fmt.Sprintf("x%g", m))
	}
	t := report.NewTable(title, headers...)

	// The default scan step at this scale (mirrors scan.Config defaults).
	stepPages := int(float64(o.FastGB+o.SlowGB) * float64(o.PagesPerGB) / 1024)
	if stepPages < 8 {
		stepPages = 8
	}

	var jobs []func() (float64, error)
	for _, param := range SensitivityParams {
		for _, mult := range SensitivityMultipliers {
			param, mult := param, mult
			jobs = append(jobs, func() (float64, error) {
				pol, err := chronoWithParam(param, mult, stepPages)
				if err != nil {
					return 0, err
				}
				e, err := Build(pol, mkWorkload(), o)
				if err != nil {
					return 0, err
				}
				return e.Run(o.Duration).Throughput(), nil
			})
		}
	}
	flat, err := parallel.MapCtx(o.ctx(), o.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for pi, param := range SensitivityParams {
		thr := flat[pi*len(SensitivityMultipliers) : (pi+1)*len(SensitivityMultipliers)]
		// Normalize to the x1 column.
		base := thr[3]
		cells := []any{param}
		for _, v := range thr {
			cells = append(cells, v/base)
		}
		t.AddRow(cells...)
	}
	t.Note = "relative performance vs default parameter value (x1)"
	return t, nil
}
