package workload

// Adversarial scenario suite: deterministic, checkpointable workloads
// engineered to defeat naive promotion policies — the thrashing and
// capacity-pressure conditions the Nomad/Jenga line of work evaluates
// against, crossed with fault-injection plans by the reproduce sweeps.
//
//   - Oscillation: the working set "breathes" around the fast-tier size,
//     alternating between fitting comfortably and overflowing it. Every
//     overflow phase forces demotions of still-warm pages; every shrink
//     phase invites re-promotion — the canonical ping-pong generator.
//   - Rotation: the hot set hops between K disjoint regions, so recency
//     signals are perpetually one phase stale and eager policies migrate
//     a full region per hop.
//   - PressureSpike: a stable hot set plus a periodic ballast burst
//     (bulk allocation touching cold memory), modelling a co-tenant
//     batch job that evicts the primary working set.
//
// Determinism rules:
//
//   - Phase is a pure function of the clock (floor(now/period)), never of
//     accumulated state; the phase ticker is keyed, so Clock.Snapshot can
//     rebind it on restore and a resumed run recomputes the same phase.
//   - Weights are re-asserted wholesale each tick from the phase alone;
//     checkpoints carry the pattern arrays verbatim
//     (engine.EnablePatternRestore).
//   - Per-page read fractions come from a stateless hash on a dedicated
//     salt — never from the shared workload RNG stream, whose position
//     existing runs depend on. The Draws counter exposes how many hash
//     draws a build made: a negative RFJitter must make it zero (the
//     fence test mirrors faultinject's zero-plan ⇒ zero-draws rule).

import (
	"fmt"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// scenarioSeedSalt derives the adversarial scenarios' stateless-hash seed
// from the engine seed. Distinct from faultinject's salt: the two classes
// must never share a stream, or adding a scenario would shift fault draws.
const scenarioSeedSalt = 0xad5e11a5c3a7

// epsilonWeight keeps cold pages at a small positive access weight: cold
// memory is touched rarely, not never.
const epsilonWeight = 0.01

// advBase carries the pieces common to the three scenarios.
type advBase struct {
	// PeriodS is the phase period in seconds (default per scenario).
	PeriodS float64
	// RFJitter is the amplitude of per-page read-fraction variation
	// around 0.8, drawn statelessly per index (default 0.15; set to a
	// negative value for none — the zero-draw fence).
	RFJitter float64

	// Draws counts stateless hash draws made by Build — the scenario
	// analogue of faultinject's draw counter.
	Draws int64

	e    *engine.Engine //chrono:rebuilt bound by Build
	proc *vm.Process
	seed uint64
	hotN uint64 // ground-truth hot prefix size, updated by the phase tick
}

// rf returns the per-index read fraction: constant unless RFJitter > 0,
// in which case a stateless hash perturbs it. Pure per index — the same
// index always yields the same fraction, so phase re-assertions and
// checkpoint restores reproduce it exactly.
func (b *advBase) rf(i uint64) float64 {
	const baseRF = 0.8
	if b.RFJitter <= 0 {
		return baseRF
	}
	b.Draws++
	return baseRF + b.RFJitter*(rng.HashFloat64(b.seed, 1, i)-0.5)
}

// phase returns the current phase index.
func (b *advBase) phase(now simclock.Time) int64 {
	return int64(now / simclock.FromSeconds(b.PeriodS))
}

// init binds the scenario to the engine and sizes its process.
func (b *advBase) init(e *engine.Engine, name string, totalPages uint64, defaultPeriodS float64, jitterDefault bool) *vm.Process {
	if b.PeriodS == 0 {
		b.PeriodS = defaultPeriodS
	}
	if b.RFJitter == 0 && jitterDefault {
		b.RFJitter = 0.15
	}
	b.e = e
	b.seed = rng.Hash(e.Config().Seed, scenarioSeedSalt, 1)
	p := vm.NewProcess(7000, name, totalPages)
	b.proc = p
	return p
}

// assert writes one phase's full pattern: indexes for which hot returns
// true get weight 1, the rest epsilon. Wholesale re-assertion plus a
// total-weight recompute keeps the pattern a pure function of the phase
// (no floating-point drift between a live run and a resumed one).
func (b *advBase) assert(hot func(i uint64) bool) {
	p := b.proc
	start := p.VMAs()[0].Start
	n := p.VMAs()[0].Len
	for i := uint64(0); i < n; i++ {
		w := epsilonWeight
		if hot(i) {
			w = 1
		}
		p.SetPattern(start+i, w, b.rf(i))
	}
	b.e.FlushPattern(p)
	p.RecomputeTotalWeight()
}

// startTicker schedules the keyed phase ticker. The tick itself only
// re-asserts the pattern for the phase the clock says it is in.
func (b *advBase) startTicker(key string, apply func(phase int64)) {
	b.e.Clock().EveryKey(key, simclock.FromSeconds(b.PeriodS), func(now simclock.Time) {
		apply(b.phase(now))
	})
}

// fastPages returns the fast tier capacity in base pages.
func fastPages(e *engine.Engine) uint64 {
	return uint64(e.Node().Capacity(mem.FastTier))
}

// Oscillation is the capacity-breathing scenario: the hot prefix
// alternates between LoFrac and HiFrac of the fast-tier capacity each
// period, with the total footprint at twice the fast tier.
type Oscillation struct {
	advBase
	// LoFrac/HiFrac size the hot set in fast-tier capacities
	// (defaults 0.75 / 1.25 — breathe around the boundary).
	LoFrac, HiFrac float64
}

// Name implements Workload.
func (w *Oscillation) Name() string { return "adv-oscillation" }

// Build implements Workload.
func (w *Oscillation) Build(e *engine.Engine) error {
	if w.LoFrac == 0 {
		w.LoFrac = 0.75
	}
	if w.HiFrac == 0 {
		w.HiFrac = 1.25
	}
	if w.HiFrac >= 2 {
		return fmt.Errorf("adv-oscillation: HiFrac %.2f must stay below the 2× footprint", w.HiFrac)
	}
	F := fastPages(e)
	// Default period 5 s: short enough that chasing the breathing set is
	// pure waste for every baseline, including the rate-limited ones.
	p := w.init(e, w.Name(), 2*F, 5, true)
	apply := func(phase int64) {
		frac := w.LoFrac
		if phase%2 == 1 {
			frac = w.HiFrac
		}
		w.hotN = uint64(frac * float64(F))
		w.assert(func(i uint64) bool { return i < w.hotN })
	}
	apply(0)
	e.AddProcess(p, 4)
	if err := e.MapAll(engine.BasePages); err != nil {
		return err
	}
	e.EnablePatternRestore(p)
	w.startTicker("workload/adv/osc", apply)
	return nil
}

// HotPage implements Workload.
func (w *Oscillation) HotPage(p *vm.Process, vpn uint64) bool {
	v := p.VMAs()[0]
	return vpn >= v.Start && vpn-v.Start < w.hotN
}

// Rotation hops the hot set across K disjoint regions: every period the
// previous region goes cold in one step and an equally sized one heats
// up — recency-based promotion is always one phase behind.
type Rotation struct {
	advBase
	// Regions is the number of disjoint hot regions cycled through
	// (default 4); each is HotFrac of the fast tier (default 0.8).
	Regions int
	HotFrac float64
}

// Name implements Workload.
func (w *Rotation) Name() string { return "adv-rotation" }

// Build implements Workload.
func (w *Rotation) Build(e *engine.Engine) error {
	if w.Regions <= 0 {
		w.Regions = 4
	}
	if w.HotFrac == 0 {
		w.HotFrac = 0.8
	}
	F := fastPages(e)
	regionPages := uint64(w.HotFrac * float64(F))
	w.hotN = regionPages
	p := w.init(e, w.Name(), uint64(w.Regions)*regionPages, 30, true)
	apply := func(phase int64) {
		region := uint64(phase) % uint64(w.Regions)
		lo := region * regionPages
		hi := lo + regionPages
		w.assert(func(i uint64) bool { return i >= lo && i < hi })
	}
	apply(0)
	e.AddProcess(p, 4)
	if err := e.MapAll(engine.BasePages); err != nil {
		return err
	}
	e.EnablePatternRestore(p)
	w.startTicker("workload/adv/rot", apply)
	return nil
}

// HotPage implements Workload: the region of the current clock phase.
func (w *Rotation) HotPage(p *vm.Process, vpn uint64) bool {
	v := p.VMAs()[0]
	if vpn < v.Start || vpn >= v.End() {
		return false
	}
	region := uint64(w.phase(w.e.Clock().Now())) % uint64(w.Regions)
	i := vpn - v.Start
	return i >= region*w.hotN && i < (region+1)*w.hotN
}

// PressureSpike keeps a stable hot set within the fast tier and fires a
// periodic ballast burst — one phase in four, a bulk region larger than
// the remaining fast-tier headroom goes active, forcing reclaim to evict
// the primary working set.
type PressureSpike struct {
	advBase
	// BaseFrac sizes the always-hot set (default 0.7 fast capacities);
	// BallastFrac sizes the burst region (default 0.8).
	BaseFrac, BallastFrac float64
}

// Name implements Workload.
func (w *PressureSpike) Name() string { return "adv-pressure" }

// Build implements Workload.
func (w *PressureSpike) Build(e *engine.Engine) error {
	if w.BaseFrac == 0 {
		w.BaseFrac = 0.7
	}
	if w.BallastFrac == 0 {
		w.BallastFrac = 0.8
	}
	F := fastPages(e)
	baseN := uint64(w.BaseFrac * float64(F))
	ballastN := uint64(w.BallastFrac * float64(F))
	w.hotN = baseN
	total := baseN + ballastN + F/2 // plus permanently cold tail
	p := w.init(e, w.Name(), total, 15, true)
	apply := func(phase int64) {
		spike := phase%4 == 3
		w.assert(func(i uint64) bool {
			if i < baseN {
				return true
			}
			return spike && i >= baseN && i < baseN+ballastN
		})
	}
	apply(0)
	e.AddProcess(p, 4)
	if err := e.MapAll(engine.BasePages); err != nil {
		return err
	}
	e.EnablePatternRestore(p)
	w.startTicker("workload/adv/spike", apply)
	return nil
}

// HotPage implements Workload: only the stable base set is ground-truth
// hot — ballast touches are pressure, not signal worth promoting.
func (w *PressureSpike) HotPage(p *vm.Process, vpn uint64) bool {
	v := p.VMAs()[0]
	return vpn >= v.Start && vpn-v.Start < w.hotN
}
