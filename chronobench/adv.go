package main

// adv-sweep: the reproduce adv experiment, shortened — 9 policies × 3
// adversarial scenarios at 60 virtual seconds with two workers. Policy
// callbacks dominate (Memtis' demotion path on base pages above all), and
// one slow cell sets the floor of the sweep. The traced run replays the
// sweep's cells through parallel.MapCtx, building each engine itself so
// the hooks can be attached, and must reproduce the sweep's tables.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/parallel"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

const (
	advDur     = 60 * simclock.Second
	advWorkers = 2
)

func advOpts(seed uint64) experiments.RunOpts {
	return experiments.RunOpts{Seed: engineSeed(seed, 0), Duration: advDur, Workers: advWorkers}
}

// advCells lists the sweep's cells in RunAdversarial's job order, with
// the engine configuration its cells are built with.
func advCells(seed uint64) []simSpec {
	o := advOpts(seed)
	var cells []simSpec
	for _, scen := range experiments.AdversarialScenarios {
		for _, pol := range experiments.AdversarialPolicies {
			scen := scen
			cells = append(cells, simSpec{
				job:    "adv/" + scen + "/" + pol,
				policy: pol,
				cfg:    engine.Config{Seed: o.Seed, PagesPerGB: 256, FastGB: 64, SlowGB: 192},
				mk:     func() (workload.Workload, error) { return experiments.NewAdversarial(scen) },
				dur:    o.Duration,
			})
		}
	}
	return cells
}

// sweepDigest folds the sweep's rendered tables.
func sweepDigest(s *experiments.AdversarialSweep) string {
	d := newDigest()
	for i, t := range s.Tables {
		d.add(fmt.Sprintf("table%d", i), t.String())
	}
	d.add("failed", len(s.Failed))
	return d.sum()
}

// runSweep times one RunAdversarial call.
func runSweep(seed uint64) (*experiments.AdversarialSweep, float64, error) {
	t0 := time.Now() //chrono:wallclock sweep timing is host-side
	s, err := experiments.RunAdversarial(advOpts(seed))
	wall := time.Since(t0).Seconds() //chrono:wallclock sweep timing is host-side
	if err == nil && len(s.Failed) > 0 {
		err = fmt.Errorf("adv sweep: %d failed cells, first: %s", len(s.Failed), s.Failed[0])
	}
	return s, wall, err
}

func advEndToEnd(c runConfig, o *outcome) {
	// Setup cost of the sweep's cells, measured outside the sweep: the
	// same engine.New + Build + attach every cell performs. Each sample
	// starts from a collected heap, so it does not pay for its
	// predecessors' garbage.
	var setups []float64
	for _, sp := range advCells(c.seed) {
		runtime.GC()
		err := safely(func() error {
			b, err := setup(sp, nil, 0)
			setups = append(setups, b.setupS)
			return err
		})
		o.attempted++
		if err != nil {
			o.fail(err)
			return
		}
	}
	var digests []string
	var wallS []float64
	err := repeat(c.budget, func() error {
		return safely(func() error {
			s, wall, err := runSweep(c.seed)
			if err != nil {
				return err
			}
			wallS = append(wallS, wall)
			digests = append(digests, sweepDigest(s))
			return nil
		})
	})
	o.attempted += len(wallS) * len(advCells(c.seed))
	if err != nil {
		o.fail(err)
		return
	}
	cells := float64(len(experiments.AdversarialScenarios) * len(experiments.AdversarialPolicies))
	var jobs, simRate, jobRate []float64
	for i, w := range wallS {
		o.check(digests[i] == digests[0], "sweep %d digest %s differs from sweep 0 (%s)", i, digests[i], digests[0])
		// Every cell is handed over at the sweep's start and returned at
		// its end: a cell's submit-to-done is the sweep's wall time.
		for j := 0; j < int(cells); j++ {
			jobs = append(jobs, w)
		}
		simRate = append(simRate, cells*advDur.Seconds()/w)
		jobRate = append(jobRate, cells/w)
	}
	o.digest = digests[0]
	o.samples = fmt.Sprintf("%d sweeps of %.0f cells", len(wallS), cells)
	o.endToEnd(setups, wallS, simRate, jobs, jobRate)
}

// advCell is one replayed cell: its table row and its trace.
type advCell struct {
	row   []string
	tr    *tracer
	acc   *layers
	cellS float64
}

// replayCell runs one cell with hooks attached and renders its row the
// way RunAdversarial does.
func replayCell(sp simSpec, tr *tracer) (advCell, error) {
	t0 := time.Now() //chrono:wallclock cell timing is host-side
	acc := newLayers()
	root := tr.begin("adv.cell", sp.job, 0)
	b, err := setup(sp, tr, root)
	if err != nil {
		return advCell{}, err
	}
	m, runS := b.run(sp, tr, root, nil)
	acc.addRun(sp.policy, runS, m, b.e.Clock().Fired())
	acc.pages += int64(len(b.e.Pages()))
	tr.end(root)
	var rePromo, shadowHit float64
	if m.Promotions > 0 {
		rePromo = 100 * float64(m.RePromotions) / float64(m.Promotions)
	}
	if tries := m.ShadowDemotions + m.ShadowStale; tries > 0 {
		shadowHit = 100 * float64(m.ShadowDemotions) / float64(tries)
	}
	t := report.NewTable("")
	t.AddRow(sp.policy, m.Throughput(), m.FMAR()*100, m.MigratedBytes/(1<<30),
		rePromo, m.ThrashBytes/(1<<30), m.NomadAborts, shadowHit)
	return advCell{row: t.Rows[0], tr: tr, acc: acc, cellS: time.Since(t0).Seconds()}, nil //chrono:wallclock cell timing is host-side
}

func advTraced(c runConfig, o *outcome) {
	o.attempted++
	sweep, sweepWall, err := func() (s *experiments.AdversarialSweep, w float64, err error) {
		err = safely(func() error {
			s, w, err = runSweep(c.seed)
			return err
		})
		return s, w, err
	}()
	if err != nil {
		o.fail(err)
		return
	}

	tr, acc := newTracer(), newLayers()
	cells := advCells(c.seed)
	jobs := make([]func() (advCell, error), len(cells))
	for i, sp := range cells {
		sp, ctr := sp, tr.fork()
		jobs[i] = func() (advCell, error) { return replayCell(sp, ctr) }
	}
	rt0 := readRuntime()
	t0 := time.Now() //chrono:wallclock sweep timing is host-side
	root := tr.begin("adv.sweep", "adv", 0)
	out, err := parallel.MapCtx(context.Background(), advWorkers, jobs)
	tr.end(root)
	replayWall := time.Since(t0).Seconds() //chrono:wallclock sweep timing is host-side
	rt := rt0.to(readRuntime())
	o.attempted += len(cells)
	if err != nil {
		o.fail(err)
		return
	}
	busy := 0.0
	for i, cell := range out {
		tr.adopt(cell.tr, root)
		acc.merge(cell.acc)
		busy += cell.cellS
		pi := i % len(experiments.AdversarialPolicies)
		want := sweep.Tables[i/len(experiments.AdversarialPolicies)].Rows[pi]
		o.check(strings.Join(cell.row, "|") == strings.Join(want, "|"),
			"%s: replayed row %v differs from the sweep's %v", cells[i].job, cell.row, want)
	}
	acc.busyFrac = busy / (advWorkers * replayWall)
	acc.straggler = replayWall - busy/advWorkers
	o.digest = sweepDigest(sweep)
	o.finishTraced(tr, acc, rt, replayWall, sweepWall, c)
}
