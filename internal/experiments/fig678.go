package experiments

import (
	"fmt"

	"chrono/internal/report"
	"chrono/internal/units"
	"chrono/internal/workload"
)

// PmbenchConfig selects one of the Figure 6 microbenchmark shapes.
type PmbenchConfig struct {
	Label        string
	Processes    int
	WorkingSetGB units.GB
}

// The three Figure 6 configurations.
var (
	Fig6a = PmbenchConfig{Label: "50 processes, 5 GB working set", Processes: 50, WorkingSetGB: 5}
	Fig6b = PmbenchConfig{Label: "32 processes, 8 GB working set", Processes: 32, WorkingSetGB: 8}
	Fig6c = PmbenchConfig{Label: "32 processes, 4 GB working set", Processes: 32, WorkingSetGB: 4}
)

// RWRatios are the read:write mixes of Figures 6, 7 and 13.
var RWRatios = []float64{95, 70, 30, 5}

// RatioLabel formats a read percentage as the paper's R:W label.
func RatioLabel(readPct float64) string {
	return fmt.Sprintf("%.0f:%.0f", readPct, 100-readPct)
}

// PmbenchSweep holds the shared runs behind Figures 6, 7 and 8: one run
// per (policy, R/W ratio) of one PmbenchConfig.
type PmbenchSweep struct {
	Config   PmbenchConfig
	Policies []string
	Ratios   []float64
	// Results[ratioIdx][policyIdx]; a nil cell is a run that did not
	// finish (see Outcome), and the renderers write FAILED for it.
	Results [][]*Result
	Outcome
}

// RunPmbenchSweep executes the full (policy × ratio) grid, ratio-major,
// through runCells. Each kept Result is compacted: metrics, workload
// parameters and Chrono tuning histories only.
func RunPmbenchSweep(cfg PmbenchConfig, policies []string, ratios []float64, o RunOpts) (*PmbenchSweep, error) {
	var cells []Cell
	for _, ratio := range ratios {
		for _, pol := range policies {
			cells = append(cells, Cell{
				Experiment: fmt.Sprintf("pmbench/%s/rw=%s", cfg.Label, RatioLabel(ratio)),
				Policy:     pol,
				Workload: func() workload.Workload {
					return &workload.Pmbench{
						Processes:    cfg.Processes,
						WorkingSetGB: cfg.WorkingSetGB,
						ReadPct:      ratio,
						Stride:       2,
						Mode:         DefaultModeFor(pol),
					}
				},
			})
		}
	}
	flat, out, err := runCells(cells, o, false, func(res *Result) Result { return *res })
	if err != nil {
		return nil, err
	}
	s := &PmbenchSweep{Config: cfg, Policies: policies, Ratios: ratios, Outcome: out}
	for ri := range ratios {
		s.Results = append(s.Results, flat[ri*len(policies):(ri+1)*len(policies):(ri+1)*len(policies)])
	}
	return s, nil
}

// ThroughputTable renders Figure 6: throughput per policy per R/W ratio,
// normalized to Linux-NB.
func (s *PmbenchSweep) ThroughputTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 6: pmbench normalized throughput (%s)", s.Config.Label),
		append([]string{"R/W ratio"}, s.Policies...)...)
	base := baselineIdx(s.Policies)
	for ri, ratio := range s.Ratios {
		t.AddRow(valueRow(RatioLabel(ratio), each(s.Results[ri], throughput), base)...)
	}
	if b := s.atRatio(70)[base]; b != nil {
		t.Note = fmt.Sprintf("absolute Linux-NB throughput at 70:30 = %.1f Mop/s",
			b.Metrics.Throughput())
	} else {
		t.Note = "Linux-NB baseline run failed; see the failure manifest"
	}
	return t
}

// each applies get to every finished run; nil where the run failed.
func each(rs []*Result, get func(*Result) float64) []*float64 {
	vals := make([]*float64, len(rs))
	for i, r := range rs {
		if r != nil {
			v := get(r)
			vals[i] = &v
		}
	}
	return vals
}

func (s *PmbenchSweep) atRatio(ratio float64) []*Result {
	for ri, r := range s.Ratios {
		if r == ratio {
			return s.Results[ri]
		}
	}
	return s.Results[0]
}

// LatencyTables renders Figure 7b-e: average / median / P99 latency per
// policy, normalized to Linux-NB, one table per R/W ratio.
func (s *PmbenchSweep) LatencyTables() []*report.Table {
	base := baselineIdx(s.Policies)
	var out []*report.Table
	for ri, ratio := range s.Ratios {
		t := report.NewTable(
			fmt.Sprintf("Figure 7: pmbench latency, R/W=%s (normalized to Linux-NB)", RatioLabel(ratio)),
			append([]string{"Statistic"}, s.Policies...)...)
		for _, stat := range []struct {
			name string
			get  func(res *Result) float64
		}{
			{"Average", func(r *Result) float64 { return r.Metrics.Lat.Mean() }},
			{"Median", func(r *Result) float64 { return r.Metrics.Lat.Percentile(0.5) }},
			{"P99", func(r *Result) float64 { return r.Metrics.Lat.Percentile(0.99) }},
		} {
			t.AddRow(valueRow(stat.name, each(s.Results[ri], stat.get), base)...)
		}
		out = append(out, t)
	}
	return out
}

// BaselineLatencyCDF renders Figure 7a: the accumulated latency
// distribution of memory loads and stores under Linux-NB.
func (s *PmbenchSweep) BaselineLatencyCDF() *report.Table {
	base := s.atRatio(70)[baselineIdx(s.Policies)]
	t := report.NewTable(
		"Figure 7a: Linux-NB latency distribution (accumulated %)",
		"Latency (ns)", "Load %", "Store %")
	if base == nil {
		t.Note = "Linux-NB baseline run failed; see the failure manifest"
		return t
	}
	marks := []float64{128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	rd := base.Metrics.LatRead
	wr := base.Metrics.LatWrite
	cum := func(h interface{ CDF() ([]float64, []float64) }, mark float64) float64 {
		ns, frac := h.CDF()
		var out float64
		for i := range ns {
			if ns[i] <= mark {
				out = frac[i]
			}
		}
		return out * 100
	}
	for _, mk := range marks {
		t.AddRow(mk, cum(rd, mk), cum(wr, mk))
	}
	return t
}

// RuntimeCharacteristics renders Figure 8 from the 70:30 runs: FMAR,
// kernel time %, and context switches/s per policy.
func (s *PmbenchSweep) RuntimeCharacteristics() *report.Table {
	t := report.NewTable(
		"Figure 8: run-time characteristics (R/W=70:30)",
		"Policy", "FMAR (%)", "Kernel time (%)", "Context switches (/s)")
	for pi, res := range s.atRatio(70) {
		if res == nil {
			t.AddRow(s.Policies[pi], "FAILED", "FAILED", "FAILED")
			continue
		}
		t.AddRow(res.Policy,
			res.Metrics.FMAR()*100,
			res.Metrics.KernelTimeFrac()*100,
			res.Metrics.ContextSwitchRate())
	}
	return t
}
