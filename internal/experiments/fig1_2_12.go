package experiments

import (
	"fmt"
	"sort"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/parallel"
	"chrono/internal/pebs"
	"chrono/internal/policy/memtis"
	"chrono/internal/report"
	"chrono/internal/stats"
	"chrono/internal/workload"
)

// This file implements the Figures 1, 2 and 12 harnesses (the workload
// characterization figures and the in-memory database comparison).

// Fig1Row is one benchmark's per-page access frequency breakdown.
type Fig1Row struct {
	Benchmark string
	// Accesses per page per minute.
	DRAM, NVM, NVMHot float64
}

// RunFig1 reproduces Figure 1: per-page access frequency for DRAM and NVM,
// plus the top-10% hot NVM region, across the four benchmarks, measured
// under vanilla NUMA balancing (the PMU measurement setup of §2.2).
func RunFig1(o RunOpts) ([]Fig1Row, error) {
	// Workload constructors, not instances: Build mutates the workload, so
	// each parallel job gets its own.
	mks := []func() workload.Workload{
		func() workload.Workload {
			return &workload.Pmbench{Processes: 32, WorkingSetGB: 7, ReadPct: 70, Stride: 2}
		},
		func() workload.Workload { return &workload.Graph500{TotalGB: 224, Processes: 8} },
		func() workload.Workload {
			return &workload.KVStore{Flavor: workload.Memcached, StoreGB: 160, SetRatio: 1, GetRatio: 10}
		},
		func() workload.Workload {
			return &workload.KVStore{Flavor: workload.Redis, StoreGB: 160, SetRatio: 1, GetRatio: 10}
		},
	}
	names := []string{"Pmbench", "Graph500", "Memcached", "Redis"}
	jobs := make([]func() (Fig1Row, error), len(mks))
	for i := range mks {
		i := i
		jobs[i] = func() (Fig1Row, error) {
			res, err := Run("Linux-NB", mks[i](), o)
			if err != nil {
				return Fig1Row{}, err
			}
			// fig1Row reads page rates off the live engine, so it runs in
			// the worker before the engine is dropped.
			return fig1Row(names[i], res), nil
		}
	}
	return parallel.MapCtx(o.ctx(), o.Workers, jobs)
}

func fig1Row(name string, res *Result) Fig1Row {
	e := res.Engine
	scale := e.CostScale()
	var dramRate, nvmRate float64
	var dramPages, nvmPages int64
	var nvmRates []float64
	for _, pg := range e.Pages() {
		if pg == nil {
			continue
		}
		// Per real 4 KB page: the simulated page aggregates scale pages.
		r := e.PageRate(pg) / float64(pg.Size) / scale
		if pg.Tier == mem.FastTier {
			dramRate += r * float64(pg.Size)
			dramPages += int64(pg.Size)
		} else {
			nvmRate += r * float64(pg.Size)
			nvmPages += int64(pg.Size)
			nvmRates = append(nvmRates, r)
		}
	}
	row := Fig1Row{Benchmark: name}
	if dramPages > 0 {
		row.DRAM = dramRate / float64(dramPages) * 60
	}
	if nvmPages > 0 {
		row.NVM = nvmRate / float64(nvmPages) * 60
	}
	// Top-10% hot NVM pages.
	sort.Float64s(nvmRates)
	top := nvmRates[int(float64(len(nvmRates))*0.9):]
	row.NVMHot = stats.Mean(top) * 60
	return row
}

// Fig1Table renders the Figure 1 rows.
func Fig1Table(rows []Fig1Row) *report.Table {
	t := report.NewTable(
		"Figure 1: per-page access frequency (#/minute, per real 4KB page)",
		"Benchmark", "DRAM", "NVM", "NVM-Hot (top 10%)", "hot/avg ratio")
	for _, r := range rows {
		ratio := 0.0
		if r.NVM > 0 {
			ratio = r.NVMHot / r.NVM
		}
		t.AddRow(r.Benchmark, r.DRAM, r.NVM, r.NVMHot, ratio)
	}
	t.Note = "frequencies are per real 4KB page (aggregate rate / capacity scale)"
	return t
}

// RunFig2a reproduces Figure 2a: F1-score and PPR of hot page
// identification for every policy on the §2.4 skewed workload (32-thread
// pmbench, Gaussian, stride 2, 25% DRAM).
func RunFig2a(policies []string, o RunOpts) (*report.Table, error) {
	t := report.NewTable("Figure 2a: hot page identification",
		"Policy", "F1-score", "Precision", "Recall", "PPR")
	type scored struct {
		cls stats.Classification
		ppr float64
	}
	jobs := make([]func() (scored, error), len(policies))
	for i, pol := range policies {
		pol := pol
		jobs[i] = func() (scored, error) {
			w := &workload.Pmbench{
				Processes: 32, WorkingSetGB: 7.8, ReadPct: 70, Stride: 2,
				Mode: DefaultModeFor(pol),
			}
			// Accumulate the classification over the run (the paper counts
			// accesses over the PMU measurement window, not a final
			// snapshot), so slow or unstable convergence costs score.
			_, cls, ppr, err := RunScored(pol, w, o)
			if err != nil {
				return scored{}, err
			}
			return scored{cls: cls, ppr: ppr}, nil
		}
	}
	rows, err := parallel.MapCtx(o.ctx(), o.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for i, pol := range policies {
		t.AddRow(pol, rows[i].cls.F1(), rows[i].cls.Precision(), rows[i].cls.Recall(), rows[i].ppr)
	}
	return t, nil
}

// RunFig2b reproduces Figure 2b: the PEBS counter bin distribution under
// huge-page vs base-page granularity for Memtis on the same workload.
func RunFig2b(o RunOpts) (*report.Table, error) {
	t := report.NewTable("Figure 2b: PEBS bin distribution (Memtis, % of sampled pages)",
		"Granularity", "bin#1", "bin#2-3", "bin#4-5", "bin#6-7", "bin#8-9", "bin#>9")
	modes := []struct {
		name string
		m    engine.PageSizeMode
	}{{"Huge-Page", engine.HugePages}, {"Base-Page", engine.BasePages}}
	jobs := make([]func() ([6]float64, error), len(modes))
	for i, mode := range modes {
		mode := mode
		jobs[i] = func() ([6]float64, error) {
			w := &workload.Pmbench{
				Processes: 32, WorkingSetGB: 7.8, ReadPct: 70, Stride: 2, Mode: mode.m,
			}
			res, err := Run("Memtis", w, o)
			if err != nil {
				return [6]float64{}, err
			}
			// binGroups walks the live page table against the sampler, so
			// it runs in-worker.
			return binGroups(res, res.Engine.Policy().(*memtis.Policy)), nil
		}
	}
	rows, err := parallel.MapCtx(o.ctx(), o.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		cells := []any{mode.name}
		for _, g := range rows[i] {
			cells = append(cells, g*100)
		}
		t.AddRow(cells...)
	}
	t.Note = "pages with a zero counter are excluded, as in the paper's sampled-page statistic"
	return t, nil
}

// binGroups buckets non-zero PEBS counters into the Figure 2b groups:
// bin#1, #2-3, #4-5, #6-7, #8-9, >9.
func binGroups(res *Result, pol *memtis.Policy) [6]float64 {
	var counts [6]float64
	var total float64
	for _, pg := range res.Engine.Pages() {
		if pg == nil {
			continue
		}
		c := pol.Sampler().Counter(pg.ID)
		if c == 0 {
			continue
		}
		b := pebs.BinOf(c)
		var g int
		switch {
		case b <= 1:
			g = 0
		case b <= 3:
			g = 1
		case b <= 5:
			g = 2
		case b <= 7:
			g = 3
		case b <= 9:
			g = 4
		default:
			g = 5
		}
		counts[g]++
		total++
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts
}

// RunFig12 reproduces Figure 12: Memcached and Redis throughput under
// SET:GET 1:10 and 1:1, normalized to Linux-NB.
func RunFig12(policies []string, o RunOpts) ([]*report.Table, error) {
	var out []*report.Table
	flavors := []struct {
		name string
		f    workload.KVFlavor
	}{{"Memcached", workload.Memcached}, {"Redis", workload.Redis}}
	mixes := []struct {
		label    string
		set, get float64
	}{{"1:10", 1, 10}, {"1:1", 1, 1}}
	var jobs []func() (float64, error)
	for _, flavor := range flavors {
		for _, mix := range mixes {
			for _, pol := range policies {
				flavor, mix, pol := flavor, mix, pol
				jobs = append(jobs, func() (float64, error) {
					w := &workload.KVStore{
						Flavor: flavor.f, StoreGB: 160,
						SetRatio: mix.set, GetRatio: mix.get,
						Mode: DefaultModeFor(pol),
					}
					res, err := Run(pol, w, o)
					if err != nil {
						return 0, err
					}
					return res.Metrics.Throughput(), nil
				})
			}
		}
	}
	flat, err := parallel.MapCtx(o.ctx(), o.Workers, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, flavor := range flavors {
		t := report.NewTable(
			fmt.Sprintf("Figure 12: %s normalized throughput", flavor.name),
			append([]string{"Set/Get"}, policies...)...)
		for _, mix := range mixes {
			thr := flat[i : i+len(policies)]
			i += len(policies)
			base := thr[0]
			for pi, p := range policies {
				if p == "Linux-NB" {
					base = thr[pi]
				}
			}
			cells := []any{mix.label}
			for _, v := range thr {
				cells = append(cells, v/base)
			}
			t.AddRow(cells...)
		}
		out = append(out, t)
	}
	return out, nil
}
