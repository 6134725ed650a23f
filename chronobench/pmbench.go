package main

// pmbench-fault: the paper's Fig. 6 shape at a page count above the host
// LLC — the hint-fault path, Chrono's CIT handler, LRU/kswapd and
// migration do nearly all the work. Three policies run in sequence on one
// engine thread; a job is one policy's setup plus Engine.Run.

import (
	"fmt"
	"runtime"

	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

var pmbenchPolicies = []string{"Chrono", "TPP", "Linux-NB"}

const pmbenchDur = 600 * simclock.Second

func pmbenchSpecs(seed uint64) []simSpec {
	specs := make([]simSpec, 0, len(pmbenchPolicies))
	for _, pol := range pmbenchPolicies {
		specs = append(specs, simSpec{
			job:    "pmbench/" + pol,
			policy: pol,
			cfg: engine.Config{
				Seed: engineSeed(seed, 0), PagesPerGB: 1024, FastGB: 64, SlowGB: 192, Shards: 1,
			},
			mk: func() (workload.Workload, error) {
				return &workload.Pmbench{
					Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2, Mode: engine.BasePages,
				}, nil
			},
			dur: pmbenchDur,
		})
	}
	return specs
}

// pmbenchRound is one pass over the three policies.
type pmbenchRound struct {
	wallS  float64   // Σ Engine.Run host seconds
	setupS []float64 // per policy: New + Build + attach
	jobS   []float64 // per policy: setup + run
	digest string
}

func runPmbenchRound(seed uint64, tr *tracer, acc *layers) (pmbenchRound, error) {
	var r pmbenchRound
	d := newDigest()
	root := tr.begin("pmbench.round", "pmbench", 0)
	for _, sp := range pmbenchSpecs(seed) {
		// Each set-up starts from a collected heap, so it does not pay
		// for the previous policy's engine.
		runtime.GC()
		b, err := setup(sp, tr, root)
		if err != nil {
			return r, err
		}
		m, runS := b.run(sp, tr, root, nil)
		r.wallS += runS
		r.setupS = append(r.setupS, b.setupS)
		r.jobS = append(r.jobS, b.setupS+runS)
		if acc != nil {
			acc.addRun(sp.policy, runS, m, b.e.Clock().Fired())
			acc.pages += int64(len(b.e.Pages()))
		}
		d.addRun(sp.policy, b.e, b.w, m)
	}
	tr.end(root)
	r.digest = d.sum()
	return r, nil
}

func pmbenchEndToEnd(c runConfig, o *outcome) {
	var rounds []pmbenchRound
	err := repeat(c.budget, func() error {
		return safely(func() error {
			r, err := runPmbenchRound(c.seed, nil, nil)
			if err != nil {
				return err
			}
			rounds = append(rounds, r)
			return nil
		})
	})
	o.attempted += len(rounds) * len(pmbenchPolicies)
	if err != nil {
		o.fail(err)
		return
	}
	var setups, jobs, walls, simRate, jobRate []float64
	for i, r := range rounds {
		o.check(r.digest == rounds[0].digest, "round %d digest %s differs from round 0 (%s)", i, r.digest, rounds[0].digest)
		setups = append(setups, r.setupS...)
		jobs = append(jobs, r.jobS...)
		walls = append(walls, r.wallS)
		simRate = append(simRate, float64(len(r.jobS))*pmbenchDur.Seconds()/r.wallS)
		jobRate = append(jobRate, float64(len(r.jobS))/r.wallS)
	}
	o.digest = rounds[0].digest
	o.samples = fmt.Sprintf("%d rounds, %d jobs", len(rounds), len(jobs))
	o.endToEnd(setups, walls, simRate, jobs, jobRate)
}

func pmbenchTraced(c runConfig, o *outcome) {
	o.attempted += 2 * len(pmbenchPolicies)
	var plain, traced pmbenchRound
	err := safely(func() (err error) {
		plain, err = runPmbenchRound(c.seed, nil, nil)
		return err
	})
	if err != nil {
		o.fail(err)
		return
	}
	tr, acc := newTracer(), newLayers()
	rt0 := readRuntime()
	err = safely(func() (err error) {
		traced, err = runPmbenchRound(c.seed, tr, acc)
		return err
	})
	rt := rt0.to(readRuntime())
	if err != nil {
		o.fail(err)
		return
	}
	o.check(traced.digest == plain.digest, "traced digest %s differs from untraced %s", traced.digest, plain.digest)
	o.digest = plain.digest
	o.finishTraced(tr, acc, rt, traced.wallS, plain.wallS, c)
}

// engineSeed derives the k-th engine seed of a benchmark seed.
func engineSeed(seed uint64, k int) uint64 { return seed*1_000_003 + uint64(k) + 1 }
