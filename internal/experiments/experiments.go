// Package experiments composes workloads, policies, and the engine into
// the paper's evaluation: one constructor per figure/table (see the
// experiment index in DESIGN.md). Both cmd/reproduce and the benchmark
// suite call into this package, so every artifact is regenerable from a
// single code path.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"chrono/internal/core"
	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/policy/autotiering"
	"chrono/internal/policy/flexmem"
	"chrono/internal/policy/hemem"
	"chrono/internal/policy/linuxnb"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/multiclock"
	"chrono/internal/policy/telescope"
	"chrono/internal/policy/tpp"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/units"
	"chrono/internal/workload"
)

// StandardPolicies is the comparison set of §5, in the paper's order.
var StandardPolicies = []string{
	"Linux-NB", "AutoTiering", "Multi-Clock", "TPP", "Memtis", "Chrono",
}

// ExtendedPolicies adds the other Table 1 systems (HeMem, FlexMem,
// Telescope), which the paper characterizes but does not carry through
// its figures; the extended comparison experiment exercises them.
var ExtendedPolicies = []string{
	"Linux-NB", "AutoTiering", "Multi-Clock", "TPP", "Telescope",
	"HeMem", "Memtis", "FlexMem", "Chrono",
}

// RunOpts are the common simulation knobs.
type RunOpts struct {
	// Seed drives all randomness (default 42).
	Seed uint64
	// Duration is the virtual run length (default 600 s; Figure 9/10
	// experiments use 1500 s like the paper).
	Duration simclock.Duration
	// PagesPerGB is the memory scale (default 256; see DESIGN.md).
	PagesPerGB int64
	// FastGB / SlowGB size the tiers (default 64 / 192: 25% fast).
	FastGB, SlowGB units.GB
	// Workers is the number of simulations a multi-run experiment may
	// execute concurrently (0 or 1 = serial). Every run is an independent
	// engine with its own seed-derived RNG streams, and results are
	// assembled in specification order, so the output is identical for any
	// worker count (see DESIGN.md "Parallel sweeps").
	Workers int
	// Faults configures deterministic fault injection for every run of
	// the experiment (zero value: disabled — runs are byte-identical to
	// a build without the subsystem; see internal/faultinject).
	Faults faultinject.Plan
	// DebugChecks forces the engine's invariant sanitizer on for every
	// run (always on under -tags simdebug regardless).
	DebugChecks bool
	// Retries is how many extra attempts a panicking run gets in a
	// crash-resilient sweep before it lands in the failure manifest
	// (default 1; negative disables retrying).
	Retries int
	// Checkpoint enables durable sweep cells: periodic engine snapshots,
	// finished-cell records, the stall watchdog, and resume (see
	// durable.go). Nil disables all of it — the default, zero-cost path.
	Checkpoint *CheckpointOpts
	// Ctx, when non-nil, cancels the sweep cooperatively: cells that have
	// not started are skipped, in-flight durable cells drain to a resume
	// snapshot, and other cells finish their current run.
	Ctx context.Context
}

// defaultPagesPerGB is RunOpts.PagesPerGB's default memory scale.
const defaultPagesPerGB = 256

// ctx returns the sweep's cancellation context (Background when unset).
func (o RunOpts) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Duration == 0 {
		o.Duration = 600 * simclock.Second
	}
	if o.PagesPerGB == 0 {
		o.PagesPerGB = defaultPagesPerGB
	}
	if o.FastGB == 0 {
		o.FastGB = 64
	}
	if o.SlowGB == 0 {
		o.SlowGB = 192
	}
	if o.Retries == 0 {
		o.Retries = 1
	}
	if o.Checkpoint != nil {
		c := *o.Checkpoint // don't mutate the caller's struct
		if c.Interval == 0 {
			c.Interval = 30 * time.Second
		}
		o.Checkpoint = &c
	}
	return o
}

// GuardPresetFor returns the thrash-guard tunables a "+guard" policy
// name resolves to. One size does not fit all: the guard's job is to
// suppress *wasted* migration, and what counts as waste depends on the
// base policy's own reaction machinery.
//
//   - Memtis/FlexMem sample continuously and re-promote within seconds,
//     so the aggressive defaults (120 s window, hard governor clamp)
//     remove almost all oscillation churn.
//   - TPP's 60 s fault-scan cadence means round trips take minutes and
//     much of its churn is genuinely hot; a window matched to one scan
//     period and a loose governor trims waste without starving it.
//     Nomad promotes on the same hint-fault recency signal, so it gets
//     the same preset when wrapped.
//   - Chrono's rate limiter already prevents ping-pong (round trips run
//     128–512 s), so per-page backoff never fires; a mild governor is
//     the only lever that cuts its residual phase-chasing bandwidth
//     without costing hit rate.
func GuardPresetFor(base string) policy.ThrashConfig {
	switch base {
	case "TPP", "Nomad":
		return policy.ThrashConfig{
			Window:     60 * simclock.Second,
			Base:       15 * simclock.Second,
			MaxBackoff: 60 * simclock.Second,
			MinAllow:   512,
		}
	case "Chrono", "Chrono-full", "Chrono-basic", "Chrono-twice", "Chrono-thrice", "Chrono-manual":
		return policy.ThrashConfig{MinAllow: 256}
	}
	return policy.ThrashConfig{}
}

// NewPolicy constructs a fresh policy instance by its report name.
// Chrono variants for the design-choice analysis (Figure 13) are named
// "Chrono-basic", "Chrono-twice", "Chrono-thrice", "Chrono-full",
// "Chrono-manual". A "+guard" suffix wraps any base policy in the
// anti-thrashing controller (policy.WithThrashGuard) with the
// per-policy preset from GuardPresetFor — e.g. "TPP+guard".
func NewPolicy(name string) (policy.Policy, error) {
	if base, ok := strings.CutSuffix(name, "+guard"); ok {
		inner, err := NewPolicy(base)
		if err != nil {
			return nil, err
		}
		return policy.WithThrashGuard(inner, GuardPresetFor(base)), nil
	}
	switch name {
	case "Linux-NB":
		return linuxnb.New(), nil
	case "AutoTiering":
		return autotiering.New(), nil
	case "Multi-Clock":
		return multiclock.New(), nil
	case "TPP":
		return tpp.New(), nil
	case "Memtis":
		return memtis.New(), nil
	case "HeMem":
		return hemem.New(), nil
	case "FlexMem":
		return flexmem.New(), nil
	case "Telescope":
		return telescope.New(), nil
	case "Nomad":
		return policy.NewNomad(), nil
	case "Chrono", "Chrono-full":
		return core.New(core.Options{}), nil
	case "Chrono-basic":
		return core.New(core.Options{Rounds: 1, Tuning: core.TuneSemiAuto, RateLimitMBps: 120}), nil
	case "Chrono-twice":
		return core.New(core.Options{Rounds: 2, Tuning: core.TuneSemiAuto, RateLimitMBps: 120}), nil
	case "Chrono-thrice":
		return core.New(core.Options{Rounds: 3, Tuning: core.TuneSemiAuto, RateLimitMBps: 120}), nil
	case "Chrono-manual":
		return core.New(core.Options{Rounds: 2, Tuning: core.TuneSemiAuto, RateLimitMBps: 150}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// DefaultModeFor returns the page-size mode a policy runs with in the
// paper's main experiments: the PEBS-family systems (Memtis, HeMem,
// FlexMem) are huge-page designs (Table 1); everything else runs base
// pages. The thrash-guard wrapper does not change the mode of the
// policy it wraps.
func DefaultModeFor(polName string) engine.PageSizeMode {
	polName, _ = strings.CutSuffix(polName, "+guard")
	switch polName {
	case "Memtis", "HeMem", "FlexMem":
		return engine.HugePages
	}
	return engine.BasePages
}

// Result is one finished simulation with its analysis context.
type Result struct {
	Policy   string
	Metrics  *engine.Metrics
	Engine   *engine.Engine
	Workload workload.Workload
	// Chrono is set when the policy is a Chrono variant, exposing the
	// tuning histories and counters.
	Chrono *core.Chrono

	// probe is the cell's sampler when it has one (see Cell.probe).
	probe probe
}

// Compact releases the finished simulation's engine — the dense page
// table, LRU links, and histogram state — keeping only the metrics,
// workload parameters, and any Chrono tuning histories. Sweeps call it
// from the worker as soon as every engine-dependent statistic (Score,
// classification, execution time) has been extracted, so a parallel sweep
// holds at most Workers engines live instead of one per finished run.
func (r *Result) Compact() {
	r.Engine = nil
}

// Build is the one place a simulation is constructed: a fresh engine
// from o's engine knobs, w materialized into it, and pol attached. The
// harness and the chronosim, chronotrace, chronoctl and chronod tools
// all build through it, so a knob added to RunOpts reaches every run.
func Build(pol policy.Policy, w workload.Workload, o RunOpts) (*engine.Engine, error) {
	o = o.withDefaults()
	e := engine.New(engine.Config{
		Seed:        o.Seed,
		PagesPerGB:  o.PagesPerGB,
		FastGB:      o.FastGB,
		SlowGB:      o.SlowGB,
		Faults:      o.Faults,
		DebugChecks: o.DebugChecks,
	})
	if err := w.Build(e); err != nil {
		return nil, fmt.Errorf("build %s: %w", w.Name(), err)
	}
	e.AttachPolicy(pol)
	return e, nil
}

// NewResult wraps a finished simulation, exposing the policy as Chrono
// when it is a Chrono variant.
func NewResult(polName string, e *engine.Engine, w workload.Workload, m *engine.Metrics) *Result {
	res := &Result{Policy: polName, Metrics: m, Engine: e, Workload: w}
	if c, ok := e.Policy().(*core.Chrono); ok {
		res.Chrono = c
	}
	return res
}

// Run executes one (workload, policy) simulation.
func Run(polName string, w workload.Workload, o RunOpts) (*Result, error) {
	o = o.withDefaults()
	pol, err := NewPolicy(polName)
	if err != nil {
		return nil, err
	}
	e, err := Build(pol, w, o)
	if err != nil {
		return nil, err
	}
	return NewResult(polName, e, w, e.Run(o.Duration)), nil
}

// classifySnapshot scores the current placement against the workload's
// ground truth, weighting by the live access rates — one sample of the
// accesses-to-DRAM statistic the paper's PMU methodology accumulates.
func classifySnapshot(e *engine.Engine, w workload.Workload) (cls stats.Classification) {
	for _, p := range e.Processes() {
		procRate := e.ProcRate(p.PID)
		if p.TotalWeight == 0 {
			continue
		}
		for _, v := range p.VMAs() {
			for vpn := v.Start; vpn < v.End(); vpn++ {
				wgt := p.Weight(vpn)
				if wgt == 0 {
					continue
				}
				pg := p.PageAt(vpn)
				if pg == nil {
					continue
				}
				rate := procRate * wgt / p.TotalWeight
				hot := w.HotPage(p, vpn)
				fast := pg.Tier == mem.FastTier
				switch {
				case hot && fast:
					cls.TruePositive += rate
				case !hot && fast:
					cls.FalsePositive += rate
				case hot && !fast:
					cls.FalseNegative += rate
				default:
					cls.TrueNegative += rate
				}
			}
		}
	}
	return cls
}

// Score computes the hot-page identification quality of a finished run
// (§2.4): access-weighted F1 against the workload's ground-truth hot set
// at the final placement, plus the page promotion ratio
// (promoted pages / accessed slow-tier pages).
func Score(res *Result) (cls stats.Classification, f1, ppr float64) {
	cls = classifySnapshot(res.Engine, res.Workload)
	return cls, cls.F1(), promotionRatio(res.Engine)
}

// promotionRatio is the page promotion ratio of a finished run: promoted
// pages over accessed slow-tier pages.
func promotionRatio(e *engine.Engine) float64 {
	if accessed := e.AccessedSlowPages(); accessed > 0 {
		return float64(e.UniquePromotedPages()) / float64(accessed)
	}
	return 0
}
