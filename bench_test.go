// Package chrono_test is the benchmark harness: one benchmark per table
// and figure of the paper (regenerating the same rows/series the paper
// reports — see EXPERIMENTS.md for the recorded shapes), plus ablation
// benchmarks for the design choices called out in DESIGN.md and
// microbenchmarks of the hot substrate data structures.
//
// Simulation benchmarks report virtual-workload metrics through
// b.ReportMetric: Mops/s (simulated throughput), FMAR%, p99ns, etc. Each
// b.N iteration is one full (shortened) simulation, so ns/op measures the
// simulator's own cost while the custom metrics carry the reproduction
// results.
package chrono_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"chrono/internal/checkpoint"
	"chrono/internal/core"
	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/lru"
	"chrono/internal/mem"
	"chrono/internal/rng"
	"chrono/internal/run"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
	"chrono/internal/workload"
	"chrono/internal/xarray"
)

// benchDuration keeps each simulated run short enough for `go test
// -bench=.` while still spanning several scan periods.
const benchDuration = 180 * simclock.Second

func benchOpts(seed uint64) experiments.RunOpts {
	return experiments.RunOpts{Seed: seed, Duration: benchDuration}
}

// runAndReport executes one (policy, workload) simulation per iteration
// and reports the reproduction metrics.
func runAndReport(b *testing.B, pol string, mk func() workload.Workload) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(pol, mk(), benchOpts(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	m := res.Metrics
	b.ReportMetric(m.Throughput(), "Mops/s")
	b.ReportMetric(m.FMAR()*100, "FMAR%")
	b.ReportMetric(m.Lat.Percentile(0.99), "p99ns")
	return res
}

// --- Table 1 & Table 2 -------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// tableValue reads one number of a sweep's rendered tables, at the
// precision the table prints it.
func tableValue(b *testing.B, s *experiments.Sweep, table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s.Tables[table].Rows[row][col], 64)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// --- Figure 1: per-page access frequency --------------------------------

func BenchmarkFig1(b *testing.B) {
	var s *experiments.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.RunFig1(benchOpts(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the pmbench row's hot/avg ratio (the paper's 5.5x claim).
	if ratio, err := strconv.ParseFloat(s.Tables[0].Rows[0][4], 64); err == nil {
		b.ReportMetric(ratio, "hot/avg")
	}
}

// --- Figure 2: hot page identification ----------------------------------

func BenchmarkFig2a(b *testing.B) {
	for _, pol := range experiments.StandardPolicies {
		b.Run(pol, func(b *testing.B) {
			var f1, ppr float64
			for i := 0; i < b.N; i++ {
				w := &workload.Pmbench{
					Processes: 32, WorkingSetGB: 7.8, ReadPct: 70, Stride: 2,
					Mode: experiments.DefaultModeFor(pol),
				}
				res, err := experiments.Run(pol, w, benchOpts(42))
				if err != nil {
					b.Fatal(err)
				}
				_, f1, ppr = experiments.Score(res)
			}
			b.ReportMetric(f1, "F1")
			b.ReportMetric(ppr, "PPR")
		})
	}
}

func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2b(benchOpts(42)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6/7/8: pmbench throughput, latency, characteristics --------

func benchFig6(b *testing.B, cfg experiments.PmbenchConfig) {
	for _, pol := range experiments.StandardPolicies {
		b.Run(pol, func(b *testing.B) {
			res := runAndReport(b, pol, func() workload.Workload {
				return &workload.Pmbench{
					Processes:    cfg.Processes,
					WorkingSetGB: cfg.WorkingSetGB,
					ReadPct:      70, Stride: 2,
					Mode: experiments.DefaultModeFor(pol),
				}
			})
			b.ReportMetric(res.Metrics.KernelTimeFrac()*100, "kern%")
			b.ReportMetric(res.Metrics.ContextSwitchRate(), "cs/s")
		})
	}
}

func BenchmarkFig6a(b *testing.B) { benchFig6(b, experiments.Fig6a) }
func BenchmarkFig6b(b *testing.B) { benchFig6(b, experiments.Fig6b) }
func BenchmarkFig6c(b *testing.B) { benchFig6(b, experiments.Fig6c) }

func BenchmarkFig7Latency(b *testing.B) {
	for _, pol := range []string{"Linux-NB", "Chrono"} {
		b.Run(pol, func(b *testing.B) {
			res := runAndReport(b, pol, func() workload.Workload {
				return &workload.Pmbench{
					Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
					Mode: experiments.DefaultModeFor(pol),
				}
			})
			b.ReportMetric(res.Metrics.Lat.Mean(), "avgns")
			b.ReportMetric(res.Metrics.Lat.Percentile(0.5), "p50ns")
		})
	}
}

func BenchmarkFig8Characteristics(b *testing.B) {
	res := runAndReport(b, "Chrono", func() workload.Workload {
		return &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2}
	})
	b.ReportMetric(res.Metrics.KernelTimeFrac()*100, "kern%")
	b.ReportMetric(res.Metrics.ContextSwitchRate(), "cs/s")
}

// --- Figure 9: multi-tenant differentiation -----------------------------

func BenchmarkFig9(b *testing.B) {
	for _, pol := range []string{"Linux-NB", "Chrono"} {
		b.Run(pol, func(b *testing.B) {
			var s *experiments.Sweep
			for i := 0; i < b.N; i++ {
				var err error
				s, err = experiments.RunFig9([]string{pol},
					experiments.RunOpts{Seed: 42, Duration: 400 * simclock.Second})
				if err != nil {
					b.Fatal(err)
				}
			}
			// The final-placement table: cgroup 0 and cgroup 49.
			b.ReportMetric(tableValue(b, s, 0, 0, 1), "hotDRAM%")
			b.ReportMetric(tableValue(b, s, 0, 0, 6), "coldDRAM%")
		})
	}
}

// --- Figure 10: CIT correlation, tuning histories, sensitivity ----------

func BenchmarkFig10aCIT(b *testing.B) {
	var s *experiments.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.RunFig10a(benchOpts(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tableValue(b, s, 0, 10, 3), "centreCITms")
}

func BenchmarkFig10bcTuning(b *testing.B) {
	var s *experiments.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.RunFig10bc(
			experiments.RunOpts{Seed: 42, Duration: 400 * simclock.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tableValue(b, s, 0, 1, 1), "convergedTHms")
}

func BenchmarkFig10dSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFig10d(
			experiments.RunOpts{Seed: 42, Duration: 60 * simclock.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11: Graph500 -------------------------------------------------

func BenchmarkFig11(b *testing.B) {
	for _, size := range []units.GB{128, 256} {
		for _, pol := range []string{"Linux-NB", "Chrono"} {
			b.Run(fmt.Sprintf("%.0fGB/%s", size, pol), func(b *testing.B) {
				var exec float64
				for i := 0; i < b.N; i++ {
					w := &workload.Graph500{TotalGB: size, Mode: experiments.DefaultModeFor(pol)}
					res, err := experiments.Run(pol, w, benchOpts(42))
					if err != nil {
						b.Fatal(err)
					}
					exec = w.ExecutionTime(res.Metrics)
				}
				b.ReportMetric(exec, "execS")
			})
		}
	}
}

// --- Figure 12: in-memory databases --------------------------------------

func BenchmarkFig12(b *testing.B) {
	for _, flavor := range []struct {
		name string
		f    workload.KVFlavor
	}{{"Memcached", workload.Memcached}, {"Redis", workload.Redis}} {
		for _, pol := range []string{"Linux-NB", "Chrono"} {
			b.Run(flavor.name+"/"+pol, func(b *testing.B) {
				runAndReport(b, pol, func() workload.Workload {
					return &workload.KVStore{
						Flavor: flavor.f, StoreGB: 160, SetRatio: 1, GetRatio: 10,
						Mode: experiments.DefaultModeFor(pol),
					}
				})
			})
		}
	}
}

// --- Figure 13 & ablations: design choices -------------------------------

func BenchmarkFig13Variants(b *testing.B) {
	for _, pol := range experiments.Fig13Variants {
		b.Run(pol, func(b *testing.B) {
			runAndReport(b, pol, func() workload.Workload {
				return &workload.Pmbench{
					Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
					Mode: experiments.DefaultModeFor(pol),
				}
			})
		})
	}
}

// BenchmarkFilterRounds ablates the candidate-filter depth directly
// (1 vs 2 vs 3 rounds under identical DCSC tuning).
func BenchmarkFilterRounds(b *testing.B) {
	for _, rounds := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.Config{Seed: 42})
				w := &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2}
				if err := w.Build(e); err != nil {
					b.Fatal(err)
				}
				e.AttachPolicy(core.New(core.Options{Rounds: rounds}))
				thr = e.Run(benchDuration).Throughput()
			}
			b.ReportMetric(thr, "Mops/s")
		})
	}
}

// --- Appendix B ----------------------------------------------------------

func BenchmarkAppBEstimators(b *testing.B) {
	r := rng.New(42)
	var mean, max float64
	for i := 0; i < b.N; i++ {
		mean, max = core.EstimatorTrial(r, 1, 2)
	}
	_ = mean
	_ = max
}

func BenchmarkAppBSelectionStats(b *testing.B) {
	var e float64
	for i := 0; i < b.N; i++ {
		_, _, e = core.SelectionStats(0.6, 2)
	}
	b.ReportMetric(e, "E(2)")
}

// --- Substrate microbenchmarks -------------------------------------------

func BenchmarkXArrayStore(b *testing.B) {
	var x xarray.XArray
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Store(uint64(i)&0xffff, i)
	}
}

func BenchmarkXArrayLoad(b *testing.B) {
	var x xarray.XArray
	for i := uint64(0); i < 1<<16; i++ {
		x.Store(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Load(uint64(i)&0xffff) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkXArrayVsMap compares the candidate-index implementation against
// a plain map (the design-choice DESIGN.md calls out).
func BenchmarkXArrayVsMap(b *testing.B) {
	b.Run("xarray", func(b *testing.B) {
		var x xarray.XArray
		for i := 0; i < b.N; i++ {
			k := uint64(i) & 0x3fff
			x.Store(k, i)
			x.Load(k)
			if i&7 == 0 {
				x.Erase(k)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[uint64]any)
		for i := 0; i < b.N; i++ {
			k := uint64(i) & 0x3fff
			m[k] = i
			_ = m[k]
			if i&7 == 0 {
				delete(m, k)
			}
		}
	})
}

func BenchmarkSimclockEvents(b *testing.B) {
	c := simclock.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AtKey(c.Now()+simclock.Duration(i&1023), "bench/event", 0, 0, func(simclock.Time) {})
		if i&1023 == 1023 {
			c.Run()
		}
	}
}

func BenchmarkLRUTouch(b *testing.B) {
	links := lru.NewLinks(1 << 16)
	tl := lru.NewTwoList(links)
	for i := int64(0); i < 1<<16; i++ {
		tl.AddNew(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Touch(int64(i) & 0xffff)
	}
}

func BenchmarkAliasSampling(b *testing.B) {
	r := rng.New(42)
	weights := make([]float64, 1<<16)
	for i := range weights {
		weights[i] = float64(i%97) + 1
	}
	a := rng.NewAlias(r, weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Next()
	}
}

func BenchmarkFaultPath(b *testing.B) {
	// Cost of one protect+fault round trip through the engine: Protect
	// draws the access gap and schedules the hint-fault event (the per-page
	// work of every scan pass); draining the clock delivers it. The working
	// set is 4× the fast tier so the benchmark set is genuinely slow-tier
	// resident — the tier every scan actually targets.
	e := engine.New(engine.Config{Seed: 42, FastGB: 4, SlowGB: 28})
	p := vm.NewProcess(1, "bench", 4096)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 4096; i++ {
		p.SetPattern(start+i, 1000, 1)
	}
	e.AddProcess(p, 1)
	if err := e.MapAll(engine.BasePages); err != nil {
		b.Fatal(err)
	}
	e.AttachPolicy(core.New(core.Options{}))
	var slow []*vm.Page
	for _, pg := range e.Pages() {
		if pg != nil && pg.Tier == mem.SlowTier {
			slow = append(slow, pg)
		}
	}
	if len(slow) == 0 {
		b.Fatal("no slow-tier pages to protect")
	}
	// Drive one Protect per tick from inside Run so scheduled faults fall
	// within the horizon and actually deliver; the measured loop is the
	// real event dispatch: protect, gap draw, schedule, fire.
	const tickNS = 10 * simclock.Microsecond
	done := 0
	e.Clock().EveryKey("bench/protect", tickNS, func(now simclock.Time) {
		pg := slow[done%len(slow)]
		if pg.Flags.Has(vm.FlagProtNone) {
			e.Unprotect(pg)
		}
		e.Protect(pg)
		done++
		if done >= b.N {
			e.Clock().Stop()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(simclock.Time(b.N+1) * tickNS)
}

// benchScanPeriods runs b.N ops of the same fixed work on a Chrono
// engine built from cfg and w: a 120 s warm-up (past the first two scan
// periods) is snapshotted, and every op restores that snapshot outside
// the timer and runs one 60 s Chrono scan period as 240 Run(250 ms)
// calls. Every op must end at the same fault count.
func benchScanPeriods(b *testing.B, cfg engine.Config, w workload.Workload) {
	const periodRuns = 240 // 60 s of 250 ms runs
	e := engine.New(cfg)
	if err := w.Build(e); err != nil {
		b.Fatal(err)
	}
	e.AttachPolicy(core.New(core.Options{}))
	e.Run(120 * simclock.Second)
	snap, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	firstFaults := -1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.Restore(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for range periodRuns {
			e.Run(250 * simclock.Millisecond)
		}
		if firstFaults < 0 {
			firstFaults = e.M.Faults
		} else if e.M.Faults != firstFaults {
			b.Fatalf("op %d ended with %v faults, the first with %v: the op is not fixed work",
				i, e.M.Faults, firstFaults)
		}
	}
}

// BenchmarkEngineEpoch measures the per-epoch accounting cost at fig6a
// scale, one Chrono scan period per op (benchScanPeriods).
func BenchmarkEngineEpoch(b *testing.B) {
	benchScanPeriods(b, engine.Config{Seed: 42},
		&workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2})
}

// BenchmarkEngineEpochHighFidelity runs epochs at PagesPerGB=32768 (128×
// the default simulation resolution — every simulated page stands for two
// real 4 KB pages per GB short of full fidelity) on 8 GB of tiers.
// Completing this benchmark is the repo's standing proof that
// full-fidelity page counts are reachable.
// An op is one Chrono scan period (benchScanPeriods).
func BenchmarkEngineEpochHighFidelity(b *testing.B) {
	benchScanPeriods(b, engine.Config{Seed: 42, PagesPerGB: 32768, FastGB: 2, SlowGB: 6},
		&workload.Pmbench{Processes: 4, WorkingSetGB: 1.5, ReadPct: 70, Stride: 2})
}

// BenchmarkHugeFactor sweeps the huge-page fold factor (the §3.4 scaling
// rules are fold-size generic: TH/size, heat bucket + log2(size)).
func BenchmarkHugeFactor(b *testing.B) {
	for _, hf := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("fold=%d", hf), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.Config{Seed: 42, HugeFactor: hf})
				w := &workload.Pmbench{
					Processes: 32, WorkingSetGB: 7.5, ReadPct: 70, Stride: 2,
					Mode: engine.HugePages,
				}
				if err := w.Build(e); err != nil {
					b.Fatal(err)
				}
				e.AttachPolicy(core.New(core.Options{}))
				thr = e.Run(benchDuration).Throughput()
			}
			b.ReportMetric(thr, "Mops/s")
		})
	}
}

// BenchmarkCgroupReclaim measures the §3.3.1 memory-limit path.
func BenchmarkCgroupReclaim(b *testing.B) {
	var swapped int64
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Config{Seed: 42, FastGB: 16, SlowGB: 48})
		p := vm.NewProcess(1, "lim", 12288)
		start := p.VMAs()[0].Start
		for j := uint64(0); j < 12288; j++ {
			w := 0.02
			if j >= 10240 {
				w = 40
			}
			p.SetPattern(start+j, w, 0.7)
		}
		p.MemLimit = 8192
		e.AddProcess(p, 4)
		if err := e.MapAll(engine.BasePages); err != nil {
			b.Fatal(err)
		}
		e.AttachPolicy(core.New(core.Options{}))
		e.Run(benchDuration)
		swapped = e.ResidentSwap(p)
	}
	b.ReportMetric(float64(swapped), "swappedPages")
}

// BenchmarkAdversarialOscillation is the anti-thrashing tier-1 case: the
// capacity-breathing scenario under the transactional baseline (Nomad's
// shadow bookkeeping on the migration hot path) and Chrono with and
// without the thrash guard (the guard's admission gate interposes on
// every promotion, so its overhead shows up here first). ns/op tracks
// simulator cost; the custom metrics carry the robustness results.
func BenchmarkAdversarialOscillation(b *testing.B) {
	for _, pol := range []string{"Nomad", "Chrono", "Chrono+guard"} {
		b.Run(pol, func(b *testing.B) {
			res := runAndReport(b, pol, func() workload.Workload {
				return &workload.Oscillation{}
			})
			b.ReportMetric(res.Metrics.MigratedBytes/(1<<30), "migGB")
		})
	}
}

// BenchmarkMemtisKmigrated is the adv sweep's most expensive cell type:
// Memtis bare and guard-wrapped on the rotation scenario, 60 virtual s
// at the adv engine config (256 pages/GB, 64/192 GB tiers). kmigrated's
// per-promotion coldest-first demotion on base pages dominates it.
func BenchmarkMemtisKmigrated(b *testing.B) {
	for _, pol := range []string{"Memtis", "Memtis+guard"} {
		b.Run(pol, func(b *testing.B) {
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.Run(pol, &workload.Rotation{},
					experiments.RunOpts{Seed: 42, Duration: 60 * simclock.Second})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.Demotions), "demotions")
		})
	}
}

// BenchmarkBuild is one adv cell's setup, the cost every sweep cell and
// every chronod job pays before its first event: engine.New, the rotation
// scenario's Build (its 52k base pages mapped) and attaching Memtis, at
// the adv engine config. allocs/op counts page-table allocations.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	var pages int
	for i := 0; i < b.N; i++ {
		pol, err := experiments.NewPolicy("Memtis")
		if err != nil {
			b.Fatal(err)
		}
		e, err := experiments.Build(pol, &workload.Rotation{}, experiments.RunOpts{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		pages = len(e.Pages())
	}
	b.ReportMetric(float64(pages), "pages")
}

// BenchmarkCheckpointSaveLoad is chronod's pause and resume of the
// chronod-durable job: a Nomad kvstore (redis, SET:GET 1:1) at 512
// pages/GB on 64/192 GB tiers, snapshotted after 300 virtual seconds.
// One op is run.Save of that engine, then checkpoint.Load of the file and
// Restore onto a fresh build; the fresh build is outside the timer.
func BenchmarkCheckpointSaveLoad(b *testing.B) {
	build := func() *engine.Engine {
		pol, err := experiments.NewPolicy("Nomad")
		if err != nil {
			b.Fatal(err)
		}
		e, err := experiments.Build(pol,
			&workload.KVStore{Flavor: workload.Redis, SetRatio: 1, GetRatio: 1},
			experiments.RunOpts{Seed: 1, PagesPerGB: 512})
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	e := build()
	e.Run(300 * simclock.Second)
	path := filepath.Join(b.TempDir(), "engine.ckpt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Save(path, e, run.Checkpoint[string]{Spec: "bench"}); err != nil {
			b.Fatal(err)
		}
		var ck run.Checkpoint[string]
		if err := checkpoint.Load(path, &ck); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fresh := build()
		b.StartTimer()
		if err := fresh.Restore(ck.State); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(fi.Size())/(1<<20), "MB")
	}
}

// BenchmarkDriftAdaptivity measures placement recovery under a moving
// hotspot (the §3.2.2 adaptivity extension).
func BenchmarkDriftAdaptivity(b *testing.B) {
	for _, pol := range []string{"Memtis", "Chrono"} {
		b.Run(pol, func(b *testing.B) {
			var s *experiments.Sweep
			for i := 0; i < b.N; i++ {
				// The drift study needs several shift cycles after the
				// initial convergence; use a longer horizon than the
				// throughput benches.
				var err error
				s, err = experiments.RunDrift([]string{pol}, 150,
					experiments.RunOpts{Seed: 42, Duration: 600 * simclock.Second})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tableValue(b, s, 0, 0, 2), "meanHotResidency")
		})
	}
}
