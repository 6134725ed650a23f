package experiments

import (
	"fmt"
	"math"

	"chrono/internal/core"
	"chrono/internal/engine"
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

// RunFig9 reproduces Figure 9: 50 single-process cgroups with delay-scaled
// uniform access patterns; the DRAM page percentage of six representative
// cgroups is sampled every 10 virtual seconds. Each policy is one cell.
func RunFig9(policies []string, o RunOpts) (*Sweep, error) {
	if o.Duration == 0 {
		o.Duration = 1500 * simclock.Second
	}
	recs, out, err := runCells(fig9Cells(policies), o, true, fig9Record)
	if err != nil {
		return nil, err
	}
	return &Sweep{Tables: fig9Tables(policies, recs), Outcome: out}, nil
}

// fig9Cells is one Figure 9 cell per policy, each sampled by a probe.
func fig9Cells(policies []string) []Cell {
	cells := make([]Cell, len(policies))
	for i, pol := range policies {
		cells[i] = Cell{
			Experiment: "fig9", Policy: pol,
			Workload: func() workload.Workload { return &workload.MultiTenant{Tenants: 50} },
			probe:    func() probe { return &fig9Series{Series: make([]stats.Series, len(Fig9Cgroups))} },
		}
	}
	return cells
}

// fig9Series is a Figure 9 cell's probe and record: the DRAM page
// percentage history of each of Fig9Cgroups, in that order.
type fig9Series struct {
	Series []stats.Series
}

func (f *fig9Series) attach(e *engine.Engine, _ workload.Workload) {
	e.Clock().EveryKey("experiments/fig9-sample", 10*simclock.Second, func(now simclock.Time) { f.sample(e, now) })
}

func (f *fig9Series) sample(e *engine.Engine, now simclock.Time) {
	for i, cg := range Fig9Cgroups {
		f.Series[i].Append(now.Seconds(), e.DRAMPagePercent(4000+cg))
	}
}

func (f *fig9Series) check() error {
	if len(f.Series) != len(Fig9Cgroups) {
		return fmt.Errorf("%d fig9 series, want %d", len(f.Series), len(Fig9Cgroups))
	}
	return nil
}

// fig9Record takes the final sample at the end of the run.
func fig9Record(res *Result) fig9Series {
	f := res.probe.(*fig9Series)
	f.sample(res.Engine, res.Engine.Clock().Now())
	return *f
}

// fig9Tables renders the Figure 9 histories: a final-placement table plus
// a sparkline per cgroup per policy.
func fig9Tables(policies []string, recs []*fig9Series) []*report.Table {
	final := report.NewTable(
		"Figure 9: final DRAM page percentage per cgroup (hot cgroup-0 ... cold cgroup-49)",
		append([]string{"Policy"}, cgroupHeaders()...)...)
	spark := report.NewTable(
		"Figure 9: DRAM page percentage history (sparklines over the run)",
		append([]string{"Policy"}, cgroupHeaders()...)...)
	for i, pol := range policies {
		fc, sc := []any{pol}, []any{pol}
		for ci := range Fig9Cgroups {
			if recs[i] == nil {
				fc, sc = append(fc, "FAILED"), append(sc, "FAILED")
				continue
			}
			s := &recs[i].Series[ci]
			fc = append(fc, s.Tail(0.2))
			sc = append(sc, report.Sparkline(report.Downsample(s.V, 24)))
		}
		final.AddRow(fc...)
		spark.AddRow(sc...)
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

// fig10aBins is the number of address-space bins of Figure 10a.
const fig10aBins = 20

// RunFig10a collects CIT observations across the address space of one
// Gaussian pmbench process and correlates them with the true access
// intervals (Figure 10a).
func RunFig10a(o RunOpts) (*Sweep, error) {
	recs, out, err := runCells([]Cell{fig10aCell()}, o, true, fig10aRecord)
	if err != nil {
		return nil, err
	}
	return &Sweep{Tables: []*report.Table{fig10aTable(recs[0])}, Outcome: out}, nil
}

// fig10aCell is Figure 10a's one cell: Chrono, with a probe binning its
// CIT observations.
func fig10aCell() Cell {
	return Cell{
		Experiment: "fig10a", Policy: "Chrono",
		Workload: func() workload.Workload {
			return &workload.Pmbench{Processes: 8, WorkingSetGB: 24, ReadPct: 70, Stride: 1}
		},
		probe: func() probe {
			c := &citBins{Samples: make([]int, fig10aBins)}
			for _, col := range []*[]float64{&c.Sum, &c.SumSq, &c.AccessPDF, &c.MeanIntervalMS} {
				*col = make([]float64, fig10aBins)
			}
			return c
		},
	}
}

// citBins is Figure 10a's probe and record, one entry per address-space
// bin of the first process's first VMA. The probe counts the CIT
// observations there (already in real per-4KB-page terms) and sums them
// and their squares; the record adds the bin's profiled access
// probability and its true mean access interval (scaled to real
// per-4KB-page terms by CostScale).
type citBins struct {
	Samples                               []int
	Sum, SumSq, AccessPDF, MeanIntervalMS []float64
}

func (c *citBins) attach(e *engine.Engine, _ workload.Workload) {
	target := e.Processes()[0]
	vma := target.VMAs()[0]
	e.Policy().(*core.Chrono).SetCITObserver(func(pg *vm.Page, citMS float64) {
		if pg.Proc != target {
			return
		}
		b := int(float64(pg.VPN-vma.Start) / float64(vma.Len) * fig10aBins)
		if b < 0 || b >= fig10aBins {
			return
		}
		c.Sum[b] += citMS
		c.SumSq[b] += citMS * citMS
		c.Samples[b]++
	})
}

func (c *citBins) check() error {
	for _, n := range []int{len(c.Samples), len(c.Sum), len(c.SumSq), len(c.AccessPDF), len(c.MeanIntervalMS)} {
		if n != fig10aBins {
			return fmt.Errorf("fig10a: %d bins, want %d", n, fig10aBins)
		}
	}
	return nil
}

// cit returns the mean and standard deviation of bin b's observations.
func (c *citBins) cit(b int) (mean, stddev float64) {
	if n := float64(c.Samples[b]); n > 0 {
		mean = c.Sum[b] / n
		if v := c.SumSq[b]/n - mean*mean; v > 0 {
			stddev = math.Sqrt(v)
		}
	}
	return mean, stddev
}

// fig10aRecord adds the true access profile of each bin.
func fig10aRecord(res *Result) citBins {
	c := *res.probe.(*citBins)
	e := res.Engine
	target := e.Processes()[0]
	vma := target.VMAs()[0]
	for b := 0; b < fig10aBins; b++ {
		mid := vma.Start + uint64((float64(b)+0.5)/fig10aBins*float64(vma.Len))
		c.AccessPDF[b] = target.Weight(mid) / target.TotalWeight
		if pg := target.PageAt(mid); pg != nil {
			if r := e.PageRate(pg); r > 0 {
				c.MeanIntervalMS[b] = 1000 / r * e.CostScale()
			}
		}
	}
	return c
}

// fig10aTable renders the correlation table; c is nil when the cell did
// not finish.
func fig10aTable(c *citBins) *report.Table {
	t := report.NewTable(
		"Figure 10a: CIT vs access interval across the address space",
		"Position", "Access PDF", "Mean interval (ms)", "CIT mean (ms)", "CIT stddev", "Samples")
	if c == nil {
		t.AddRow("FAILED", "FAILED", "FAILED", "FAILED", "FAILED", "FAILED")
	} else {
		for b := 0; b < fig10aBins; b++ {
			mean, stddev := c.cit(b)
			t.AddRow((float64(b)+0.5)/fig10aBins, c.AccessPDF[b], c.MeanIntervalMS[b], mean, stddev, c.Samples[b])
		}
	}
	t.Note = "CIT values are scaled to real per-4KB-page terms (× capacity scale); CIT should track the mean interval"
	return t
}

// RunFig10bc runs Chrono on the Figure 6a workload for the full 1500 s and
// renders its threshold and rate-limit histories (Figures 10b and 10c).
func RunFig10bc(o RunOpts) (*Sweep, error) {
	if o.Duration == 0 {
		o.Duration = 1500 * simclock.Second
	}
	recs, out, err := runCells([]Cell{fig10bcCell()}, o, true, tuningRecord)
	if err != nil {
		return nil, err
	}
	return &Sweep{Tables: fig10bcTables(recs[0]), Outcome: out}, nil
}

// fig10bcCell is Figures 10b-c's one cell: Chrono on the Figure 6a
// workload.
func fig10bcCell() Cell {
	return Cell{Experiment: "fig10bc", Policy: "Chrono", Workload: func() workload.Workload {
		return &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2}
	}}
}

// tuning is Figure 10b-c's record: Chrono's tuning histories, which are
// its checkpoint state, so the cell needs no probe.
type tuning struct {
	Threshold, RateLimit stats.Series
}

func tuningRecord(res *Result) tuning {
	return tuning{Threshold: res.Chrono.ThresholdHist, RateLimit: res.Chrono.RateLimitHist}
}

// fig10bcTables renders the tuning histories; r is nil when the cell did
// not finish, and every value then reads FAILED.
func fig10bcTables(r *tuning) []*report.Table {
	var threshold, rateLimit stats.Series
	if r != nil {
		threshold, rateLimit = r.Threshold, r.RateLimit
	}
	val := func(v any) any {
		if r == nil {
			return "FAILED"
		}
		return v
	}
	th := report.NewTable("Figure 10b: CIT threshold history",
		"metric", "value")
	th.AddRow("initial (ms)", val(first(threshold.V)))
	th.AddRow("converged (ms, tail mean)", val(threshold.Tail(0.25)))
	th.AddRow("history", val(report.Sparkline(report.Downsample(threshold.V, 40))))
	rl := report.NewTable("Figure 10c: migration rate limit history",
		"metric", "value")
	rl.AddRow("initial (MB/s)", val(first(rateLimit.V)))
	rl.AddRow("early mean (MB/s)", val(headMean(rateLimit.V, 0.2)))
	rl.AddRow("converged (MB/s, tail mean)", val(rateLimit.Tail(0.25)))
	rl.AddRow("history", val(report.Sparkline(report.Downsample(rateLimit.V, 40))))
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
