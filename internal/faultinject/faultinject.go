// Package faultinject is the simulator's deterministic fault model.
//
// The real kernel substrate Chrono targets fails constantly: page
// migrations abort on busy or pinned pages (NOMAD's transactional
// migrations are designed around exactly this), allocations fail
// transiently when a zone hovers near its watermarks, PEBS buffers
// overflow and drop samples, and hint faults are delivered late under
// scheduling pressure. The engine consults an Injector at each of those
// decision points; a zero Plan disables the subsystem entirely (no RNG
// draws, no state), so fault-free runs are byte-identical to a build
// without it.
//
// Determinism: every fault class draws from its own RNG stream, forked
// from (seed, class label) independently of the engine's streams. A run
// is therefore bit-reproducible from (seed, Plan) alone, and enabling
// one class never shifts the decisions of another.
package faultinject

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
)

// Class identifies one fault class; each owns a forked RNG stream.
type Class int

const (
	// MigrationBusy: a migration aborts after the capacity and bandwidth
	// checks pass — the busy/pinned-page abort of migrate_pages.
	MigrationBusy Class = iota
	// AllocFail: a tier allocation fails transiently near the watermarks,
	// in bursts (watermark pressure persists across consecutive attempts).
	AllocFail
	// PEBSDrop: a sampling period becomes an overflow window in which a
	// fraction of the drawn samples is lost.
	PEBSDrop
	// FaultDelay: a hint fault is delivered late.
	FaultDelay
	// NumClasses is the number of fault classes.
	NumClasses
)

// String returns the class name used in counters and CLI specs.
func (c Class) String() string {
	switch c {
	case MigrationBusy:
		return "migration-busy"
	case AllocFail:
		return "alloc-fail"
	case PEBSDrop:
		return "pebs-drop"
	case FaultDelay:
		return "fault-delay"
	}
	return "unknown"
}

// Plan configures the fault classes. The zero value disables injection;
// any class with probability 0 is never drawn from, so partial plans are
// cheap and deterministic with respect to the enabled classes only.
type Plan struct {
	// MigrationFailProb aborts a migration that passed the capacity and
	// bandwidth checks (transient busy/pinned-page failure).
	MigrationFailProb float64 `json:"migration_fail_prob,omitempty"`

	// AllocFailProb starts an allocation-failure burst when the target
	// tier is near its watermarks; AllocFailBurst is the burst length in
	// allocation attempts (default 3 when the class is enabled).
	AllocFailProb  float64 `json:"alloc_fail_prob,omitempty"`
	AllocFailBurst int     `json:"alloc_fail_burst,omitempty"`

	// PEBSDropProb turns a sampling period into an overflow window;
	// PEBSDropFrac is the fraction of samples lost inside the window
	// (default 0.5 when the class is enabled).
	PEBSDropProb float64 `json:"pebs_drop_prob,omitempty"`
	PEBSDropFrac float64 `json:"pebs_drop_frac,omitempty"`

	// FaultDelayProb delays a scheduled hint fault by a uniform extra
	// latency in (0, FaultDelayMax] (default 10 ms when enabled).
	FaultDelayProb  float64  `json:"fault_delay_prob,omitempty"`
	FaultDelayMaxMS units.MS `json:"fault_delay_max_ms,omitempty"`
}

// Enabled reports whether any fault class is active.
func (p Plan) Enabled() bool {
	return p.MigrationFailProb > 0 || p.AllocFailProb > 0 ||
		p.PEBSDropProb > 0 || p.FaultDelayProb > 0
}

// withDefaults fills the secondary knobs of each enabled class.
func (p Plan) withDefaults() Plan {
	if p.AllocFailProb > 0 && p.AllocFailBurst <= 0 {
		p.AllocFailBurst = 3
	}
	if p.PEBSDropProb > 0 && p.PEBSDropFrac <= 0 {
		p.PEBSDropFrac = 0.5
	}
	if p.FaultDelayProb > 0 && p.FaultDelayMaxMS <= 0 {
		p.FaultDelayMaxMS = 10
	}
	return p
}

// String renders the plan in ParsePlan's spec syntax.
func (p Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	p = p.withDefaults()
	var parts []string
	if p.MigrationFailProb > 0 {
		parts = append(parts, fmt.Sprintf("mig=%g", p.MigrationFailProb))
	}
	if p.AllocFailProb > 0 {
		parts = append(parts, fmt.Sprintf("alloc=%g:%d", p.AllocFailProb, p.AllocFailBurst))
	}
	if p.PEBSDropProb > 0 {
		parts = append(parts, fmt.Sprintf("pebs=%g:%g", p.PEBSDropProb, p.PEBSDropFrac))
	}
	if p.FaultDelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g:%g", p.FaultDelayProb, float64(p.FaultDelayMaxMS)))
	}
	return strings.Join(parts, ",")
}

// Aggressive is the soak-test plan: sustained 20% migration failure plus
// every other class at rates well above anything a healthy host shows.
func Aggressive() Plan {
	return Plan{
		MigrationFailProb: 0.20,
		AllocFailProb:     0.10,
		AllocFailBurst:    4,
		PEBSDropProb:      0.25,
		PEBSDropFrac:      0.5,
		FaultDelayProb:    0.20,
		FaultDelayMaxMS:   20,
	}
}

// ParsePlan parses a CLI fault-plan spec: a preset name ("none",
// "aggressive") or comma-separated class=value settings:
//
//	mig=P       transient migration-failure probability
//	alloc=P[:N] allocation-failure probability and burst length
//	pebs=P[:F]  PEBS overflow-window probability and in-window drop fraction
//	delay=P[:M] hint-fault delay probability and max extra delay in ms
//
// Every value must be finite: a probability in [0, 1], a secondary value
// non-negative, a burst that fits an int, and a delay whose nanoseconds
// fit the virtual clock and, if positive, reach its 1 ns tick. Every accepted plan marshals to JSON, and its
// String parses back to the same plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	switch strings.TrimSpace(spec) {
	case "", "none":
		return p, nil
	case "aggressive":
		return Aggressive(), nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faultinject: bad field %q (want class=value)", field)
		}
		prim, sec, hasSec := strings.Cut(val, ":")
		prob, err := strconv.ParseFloat(prim, 64)
		if err != nil || !(prob >= 0 && prob <= 1) { // NaN fails both
			return Plan{}, fmt.Errorf("faultinject: bad probability %q for %s", prim, key)
		}
		var secF float64
		if hasSec {
			if secF, err = strconv.ParseFloat(sec, 64); err != nil || !(secF >= 0) || math.IsInf(secF, 1) {
				return Plan{}, fmt.Errorf("faultinject: bad secondary value %q for %s", sec, key)
			}
		}
		switch key {
		case "mig":
			if hasSec {
				return Plan{}, fmt.Errorf("faultinject: mig takes no secondary value")
			}
			p.MigrationFailProb = prob
		case "alloc":
			if secF >= float64(math.MaxInt) { // rounds up to the first value an int cannot hold
				return Plan{}, fmt.Errorf("faultinject: alloc burst %g overflows int", secF)
			}
			p.AllocFailProb = prob
			p.AllocFailBurst = int(secF)
		case "pebs":
			if secF > 1 {
				return Plan{}, fmt.Errorf("faultinject: pebs drop fraction %g > 1", secF)
			}
			p.PEBSDropProb = prob
			p.PEBSDropFrac = secF
		case "delay":
			if ns := float64(units.MS(secF).NS()); ns >= float64(math.MaxInt64) {
				return Plan{}, fmt.Errorf("faultinject: fault delay %g ms overflows the clock", secF)
			} else if ns > 0 && ns < 1 {
				return Plan{}, fmt.Errorf("faultinject: fault delay %g ms is below the clock's 1 ns tick", secF)
			}
			p.FaultDelayProb = prob
			p.FaultDelayMaxMS = units.MS(secF)
		default:
			return Plan{}, fmt.Errorf("faultinject: unknown fault class %q", key)
		}
	}
	return p, nil
}

// seedSalt decorrelates the injector's stream family from the engine's
// rMaster forks, which use small labels on the raw seed.
const seedSalt = 0xfa417_1417_ec7ed

// Injector draws fault decisions. All methods are nil-safe and report
// "no fault" on a nil receiver, so consumers need no enabled-checks at
// call sites. Not safe for concurrent use — one injector per engine, on
// the engine's single-threaded event loop.
type Injector struct {
	plan Plan

	mig   *rng.Source
	alloc *rng.Source
	pebs  *rng.Source
	delay *rng.Source

	allocBurstLeft int
	counts         [NumClasses]int64
}

// New builds an injector for (seed, plan). Returns nil for a disabled
// plan: the nil injector is the "never fault, never draw" object.
func New(seed uint64, plan Plan) *Injector {
	plan = plan.withDefaults()
	if !plan.Enabled() {
		return nil
	}
	base := rng.New(seed ^ seedSalt)
	return &Injector{
		plan:  plan,
		mig:   base.Fork(1 + uint64(MigrationBusy)),
		alloc: base.Fork(1 + uint64(AllocFail)),
		pebs:  base.Fork(1 + uint64(PEBSDrop)),
		delay: base.Fork(1 + uint64(FaultDelay)),
	}
}

// Plan returns the (defaulted) plan, zero for a nil injector.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// MigrationBusy reports whether this migration attempt aborts on a
// busy/pinned page.
func (in *Injector) MigrationBusy() bool {
	if in == nil || in.plan.MigrationFailProb <= 0 {
		return false
	}
	if !in.mig.Bool(in.plan.MigrationFailProb) {
		return false
	}
	in.counts[MigrationBusy]++
	return true
}

// AllocFail reports whether this near-watermark allocation attempt fails.
// A hit starts (or continues) a burst: the next AllocFailBurst-1 attempts
// fail too, modelling watermark pressure that persists across retries.
func (in *Injector) AllocFail() bool {
	if in == nil || in.plan.AllocFailProb <= 0 {
		return false
	}
	if in.allocBurstLeft > 0 {
		in.allocBurstLeft--
		in.counts[AllocFail]++
		return true
	}
	if !in.alloc.Bool(in.plan.AllocFailProb) {
		return false
	}
	in.allocBurstLeft = in.plan.AllocFailBurst - 1
	in.counts[AllocFail]++
	return true
}

// PEBSLossFrac returns the extra sample-loss fraction for this sampling
// period: PEBSDropFrac when the period lands in an overflow window, 0
// otherwise.
func (in *Injector) PEBSLossFrac() float64 {
	if in == nil || in.plan.PEBSDropProb <= 0 {
		return 0
	}
	if !in.pebs.Bool(in.plan.PEBSDropProb) {
		return 0
	}
	in.counts[PEBSDrop]++
	return in.plan.PEBSDropFrac
}

// FaultDelay returns the extra delivery latency for one scheduled hint
// fault (0 for on-time delivery).
func (in *Injector) FaultDelay() simclock.Duration {
	if in == nil || in.plan.FaultDelayProb <= 0 {
		return 0
	}
	if !in.delay.Bool(in.plan.FaultDelayProb) {
		return 0
	}
	in.counts[FaultDelay]++
	// Uniform in (0, max], truncated to the clock's 1 ns tick. ParsePlan
	// rejects a positive max below one tick, where every draw would
	// truncate to zero and the counter would count delays never applied.
	frac := 1 - in.delay.Float64()
	return simclock.Duration(frac * float64(in.plan.FaultDelayMaxMS.NS()))
}

// Count returns how many faults of one class were injected.
func (in *Injector) Count(c Class) int64 {
	if in == nil {
		return 0
	}
	return in.counts[c]
}

// Total returns the number of injected faults across all classes.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for _, c := range in.counts {
		t += c
	}
	return t
}
