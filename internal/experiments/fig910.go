package experiments

import (
	"fmt"
	"math"

	"chrono/internal/core"
	"chrono/internal/parallel"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/vm"
	"chrono/internal/workload"
)

// This file implements the Figure 9 (multi-tenant hot/cold identification)
// and Figure 10 (parameter tuning / CIT correlation) harnesses.

// Fig9Cgroups are the tenants whose placement history the paper plots.
var Fig9Cgroups = []int{0, 9, 19, 29, 39, 49}

// Fig9Result is one policy's DRAM-page-percentage history per tracked
// cgroup.
type Fig9Result struct {
	Policy string
	Series map[int]*stats.Series // cgroup -> history
}

// RunFig9 reproduces Figure 9: 50 single-process cgroups with delay-scaled
// uniform access patterns; the DRAM page percentage of six representative
// cgroups is sampled every 10 virtual seconds. Policies run as independent
// parallel simulations, assembled in the given order.
func RunFig9(policies []string, o RunOpts) ([]*Fig9Result, error) {
	if o.Duration == 0 {
		o.Duration = 1500 * simclock.Second
	}
	jobs := make([]func() (*Fig9Result, error), len(policies))
	for i, pol := range policies {
		pol := pol
		jobs[i] = func() (*Fig9Result, error) {
			p, err := NewPolicy(pol)
			if err != nil {
				return nil, err
			}
			e, err := Build(p, &workload.MultiTenant{Tenants: 50}, o)
			if err != nil {
				return nil, err
			}
			r := &Fig9Result{Policy: pol, Series: make(map[int]*stats.Series)}
			for _, cg := range Fig9Cgroups {
				r.Series[cg] = &stats.Series{Name: fmt.Sprintf("cgroup-%d", cg)}
			}
			sample := func(now simclock.Time) {
				for _, cg := range Fig9Cgroups {
					r.Series[cg].Append(now.Seconds(), e.DRAMPagePercent(4000+cg))
				}
			}
			e.Clock().EveryKey("experiments/fig9-sample", 10*simclock.Second, sample)
			e.Run(o.Duration)
			sample(e.Clock().Now())
			return r, nil
		}
	}
	return parallel.MapCtx(o.ctx(), o.Workers, jobs)
}

// Fig9Tables renders the Figure 9 histories: a final-placement table plus
// a sparkline per cgroup per policy.
func Fig9Tables(results []*Fig9Result) []*report.Table {
	final := report.NewTable(
		"Figure 9: final DRAM page percentage per cgroup (hot cgroup-0 ... cold cgroup-49)",
		append([]string{"Policy"}, cgroupHeaders()...)...)
	for _, r := range results {
		cells := []any{r.Policy}
		for _, cg := range Fig9Cgroups {
			cells = append(cells, r.Series[cg].Tail(0.2))
		}
		final.AddRow(cells...)
	}
	spark := report.NewTable(
		"Figure 9: DRAM page percentage history (sparklines over the run)",
		append([]string{"Policy"}, cgroupHeaders()...)...)
	for _, r := range results {
		cells := []any{r.Policy}
		for _, cg := range Fig9Cgroups {
			cells = append(cells, report.Sparkline(report.Downsample(r.Series[cg].V, 24)))
		}
		spark.AddRow(cells...)
	}
	return []*report.Table{final, spark}
}

func cgroupHeaders() []string {
	var hs []string
	for _, cg := range Fig9Cgroups {
		hs = append(hs, fmt.Sprintf("cg-%d", cg))
	}
	return hs
}

// Fig10a is the CIT-vs-position correlation experiment.
type Fig10a struct {
	// Position is the relative address-space position of each bin centre.
	Position []float64
	// AccessPDF is the profiled access probability of the bin.
	AccessPDF []float64
	// MeanIntervalMS is the true mean access interval (scaled to real
	// per-4KB-page terms by CostScale).
	MeanIntervalMS []float64
	// CITMeanMS / CITStddevMS are the collected CIT statistics (same
	// scaling).
	CITMeanMS   []float64
	CITStddevMS []float64
	Samples     []int
}

// RunFig10a collects CIT observations across the address space of one
// Gaussian pmbench process and correlates them with the true access
// intervals (Figure 10a).
func RunFig10a(o RunOpts) (*Fig10a, error) {
	o = o.withDefaults()
	const bins = 20
	w := &workload.Pmbench{Processes: 8, WorkingSetGB: 24, ReadPct: 70, Stride: 1}
	pol, err := NewPolicy("Chrono")
	if err != nil {
		return nil, err
	}
	e, err := Build(pol, w, o)
	if err != nil {
		return nil, err
	}
	out := &Fig10a{
		Position:       make([]float64, bins),
		AccessPDF:      make([]float64, bins),
		MeanIntervalMS: make([]float64, bins),
		CITMeanMS:      make([]float64, bins),
		CITStddevMS:    make([]float64, bins),
		Samples:        make([]int, bins),
	}
	sum := make([]float64, bins)
	sumSq := make([]float64, bins)
	target := e.Processes()[0]
	vma := target.VMAs()[0]
	scale := e.CostScale()
	pol.(*core.Chrono).SetCITObserver(func(pg *vm.Page, citMS float64) {
		// citMS is already in real per-4KB-page terms.
		if pg.Proc != target {
			return
		}
		b := int(float64(pg.VPN-vma.Start) / float64(vma.Len) * bins)
		if b < 0 || b >= bins {
			return
		}
		sum[b] += citMS
		sumSq[b] += citMS * citMS
		out.Samples[b]++
	})
	e.Run(o.Duration)

	for b := 0; b < bins; b++ {
		out.Position[b] = (float64(b) + 0.5) / bins
		mid := vma.Start + uint64((float64(b)+0.5)/bins*float64(vma.Len))
		wgt := target.Weight(mid)
		out.AccessPDF[b] = wgt / target.TotalWeight
		pg := target.PageAt(mid)
		if pg != nil {
			r := e.PageRate(pg)
			if r > 0 {
				out.MeanIntervalMS[b] = 1000 / r * scale
			}
		}
		if n := float64(out.Samples[b]); n > 0 {
			m := sum[b] / n
			out.CITMeanMS[b] = m
			v := sumSq[b]/n - m*m
			if v > 0 {
				out.CITStddevMS[b] = math.Sqrt(v)
			}
		}
	}
	return out, nil
}

// Fig10aTable renders the correlation table.
func Fig10aTable(f *Fig10a) *report.Table {
	t := report.NewTable(
		"Figure 10a: CIT vs access interval across the address space",
		"Position", "Access PDF", "Mean interval (ms)", "CIT mean (ms)", "CIT stddev", "Samples")
	for i := range f.Position {
		t.AddRow(f.Position[i], f.AccessPDF[i], f.MeanIntervalMS[i],
			f.CITMeanMS[i], f.CITStddevMS[i], f.Samples[i])
	}
	t.Note = "CIT values are scaled to real per-4KB-page terms (× capacity scale); CIT should track the mean interval"
	return t
}

// RunFig10bc runs Chrono on the Figure 6a workload for the full 1500 s and
// returns the threshold / rate-limit histories (Figures 10b and 10c).
func RunFig10bc(o RunOpts) (threshold, rateLimit *stats.Series, err error) {
	if o.Duration == 0 {
		o.Duration = 1500 * simclock.Second
	}
	w := &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2}
	res, err := Run("Chrono", w, o)
	if err != nil {
		return nil, nil, err
	}
	return &res.Chrono.ThresholdHist, &res.Chrono.RateLimitHist, nil
}

// Fig10bcTables renders the tuning histories.
func Fig10bcTables(threshold, rateLimit *stats.Series) []*report.Table {
	th := report.NewTable("Figure 10b: CIT threshold history",
		"metric", "value")
	th.AddRow("initial (ms)", first(threshold.V))
	th.AddRow("converged (ms, tail mean)", threshold.Tail(0.25))
	th.AddRow("history", report.Sparkline(report.Downsample(threshold.V, 40)))
	rl := report.NewTable("Figure 10c: migration rate limit history",
		"metric", "value")
	rl.AddRow("initial (MB/s)", first(rateLimit.V))
	rl.AddRow("early mean (MB/s)", headMean(rateLimit.V, 0.2))
	rl.AddRow("converged (MB/s, tail mean)", rateLimit.Tail(0.25))
	rl.AddRow("history", report.Sparkline(report.Downsample(rateLimit.V, 40)))
	return []*report.Table{th, rl}
}

func first(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return vs[0]
}

func headMean(vs []float64, frac float64) float64 {
	n := int(float64(len(vs)) * frac)
	if n < 1 {
		n = 1
	}
	if n > len(vs) {
		n = len(vs)
	}
	return stats.Mean(vs[:n])
}
