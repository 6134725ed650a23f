package main

// Shared measurement plumbing: building and running one simulation
// through the public engine API, the per-layer accumulator of a traced
// phase, Go runtime counters, and the round loop.

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// simSpec is one simulation: a policy on a fresh workload.
type simSpec struct {
	job    string // shared span ID, e.g. "pmbench/Chrono"
	policy string
	cfg    engine.Config
	mk     func() (workload.Workload, error)
	dur    simclock.Duration
}

// built is an engine ready to run, with the host time its setup took.
type built struct {
	e      *engine.Engine
	w      workload.Workload
	setupS float64
}

// setup performs engine.New, Workload.Build and policy attach, each a
// span under parent when tr is non-nil.
func setup(sp simSpec, tr *tracer, parent int) (built, error) {
	t0 := time.Now() //chrono:wallclock setup timing is host-side
	id := tr.begin("engine.new", sp.job, parent)
	e := engine.New(sp.cfg)
	tr.end(id)
	w, err := sp.mk()
	if err != nil {
		return built{}, err
	}
	id = tr.begin("workload.build", sp.job, parent)
	err = w.Build(e)
	tr.end(id)
	if err != nil {
		return built{}, fmt.Errorf("%s: build %s: %w", sp.job, w.Name(), err)
	}
	id = tr.begin("policy.attach", sp.job, parent)
	pol, err := experiments.NewPolicy(sp.policy)
	if err == nil {
		e.AttachPolicy(pol)
	}
	tr.end(id)
	if err != nil {
		return built{}, err
	}
	return built{e: e, w: w, setupS: time.Since(t0).Seconds()}, nil //chrono:wallclock setup timing is host-side
}

// run executes Engine.Run under an engine.run span with the step and
// epoch hooks attached, and returns the metrics and the host seconds.
func (b built) run(sp simSpec, tr *tracer, parent int, afterStep func(parent int)) (*engine.Metrics, float64) {
	t0 := time.Now() //chrono:wallclock run timing is host-side
	id := tr.begin("engine.run", sp.job, parent)
	h := tr.hookEngine(b.e, sp.job, id, afterStep)
	m := b.e.Run(sp.dur)
	h.close(b.e)
	tr.end(id)
	return m, time.Since(t0).Seconds() //chrono:wallclock run timing is host-side
}

// layers accumulates a traced phase's per-layer quantities that are not
// read off span durations.
type layers struct {
	runS       map[string]float64 // Engine.Run (+ResumeRun) host seconds by policy
	runTotalS  float64
	pages      int64
	faults     float64
	events     uint64
	promotions int64
	demotions  int64
	failedProm int64
	migratedB  float64
	ckptBytes  []float64
	busyFrac   float64
	straggler  float64
	queueWaitS []float64
	pauseS     []float64
	resumeS    []float64
}

func newLayers() *layers { return &layers{runS: map[string]float64{}} }

// addRun records one simulation segment's host time and, for the segment
// that finishes the run (m non-nil), its simulated counts. events is the
// engine's Clock.Fired, which a restored clock carries over, so only the
// finishing segment reports it.
func (l *layers) addRun(policy string, runS float64, m *engine.Metrics, events uint64) {
	l.runS[policy] += runS
	l.runTotalS += runS
	l.events += events
	if m == nil {
		return
	}
	l.faults += m.Faults
	l.promotions += m.Promotions
	l.demotions += m.Demotions
	l.failedProm += m.FailedPromotions
	l.migratedB += m.MigratedBytes
}

// merge folds a worker's accumulator into l.
func (l *layers) merge(o *layers) {
	//chrono:ordered-irrelevant each key receives exactly one addition
	for p, s := range o.runS {
		l.runS[p] += s
	}
	l.runTotalS += o.runTotalS
	l.pages += o.pages
	l.faults += o.faults
	l.events += o.events
	l.promotions += o.promotions
	l.demotions += o.demotions
	l.failedProm += o.failedProm
	l.migratedB += o.migratedB
	l.ckptBytes = append(l.ckptBytes, o.ckptBytes...)
	l.queueWaitS = append(l.queueWaitS, o.queueWaitS...)
	l.pauseS = append(l.pauseS, o.pauseS...)
	l.resumeS = append(l.resumeS, o.resumeS...)
}

// perLayerMetrics renders the accumulator, the spans, the runtime deltas
// and the trace overhead into the perLayer metric set.
func perLayerMetrics(l *layers, tr *tracer, rt rtDelta, overhead float64) map[string]float64 {
	sum := func(names ...string) float64 {
		s := 0.0
		for _, d := range tr.durations(names...) {
			s += d
		}
		return s
	}
	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	steps := tr.durations("simclock.step", "engine.epoch_tick")
	epochs := tr.durations("engine.epoch")
	rpcs := ms(tr.durations("daemon.rpc"))
	out := map[string]float64{
		"workload.build_s":          sum("workload.build"),
		"workload.pages":            float64(l.pages),
		"engine.new_s":              sum("engine.new"),
		"policy.attach_s":           sum("policy.attach"),
		"engine.faults":             l.faults,
		"engine.epoch_p50_ms":       zeroNaN(median(epochs) * 1e3),
		"engine.epoch_max_ms":       zeroNaN(maxOf(epochs) * 1e3),
		"engine.promotions":         float64(l.promotions),
		"engine.demotions":          float64(l.demotions),
		"engine.migrated_gb":        l.migratedB / 1e9,
		"simclock.events":           float64(l.events),
		"simclock.step_p50_us":      zeroNaN(median(steps) * 1e6),
		"simclock.step_p99_us":      zeroNaN(quantile(steps, 0.99) * 1e6),
		"simclock.step_max_ms":      zeroNaN(maxOf(steps) * 1e3),
		"parallel.busy_frac":        l.busyFrac,
		"parallel.straggler_s":      l.straggler,
		"engine.snapshot_s":         zeroNaN(median(tr.durations("engine.snapshot"))),
		"checkpoint.save_s":         zeroNaN(median(tr.durations("checkpoint.save"))),
		"checkpoint.load_s":         zeroNaN(median(tr.durations("checkpoint.load"))),
		"checkpoint.bytes_mb":       zeroNaN(median(l.ckptBytes) / 1e6),
		"engine.restore_s":          zeroNaN(median(tr.durations("engine.restore"))),
		"daemon.rpc_p50_ms":         zeroNaN(median(rpcs)),
		"daemon.rpc_p99_ms":         zeroNaN(quantile(rpcs, 0.99)),
		"daemon.queue_wait_s":       zeroNaN(median(l.queueWaitS)),
		"daemon.pause_s":            zeroNaN(median(l.pauseS)),
		"daemon.resume_s":           zeroNaN(median(l.resumeS)),
		"runtime.alloc_gb":          rt.allocGB,
		"runtime.gc_cycles":         rt.gcCycles,
		"runtime.gc_cpu_frac":       rt.gcCPUFrac,
		"bench.trace_overhead_frac": overhead,
	}
	if l.faults > 0 {
		out["engine.ns_per_fault"] = l.runTotalS * 1e9 / l.faults
	} else {
		out["engine.ns_per_fault"] = 0
	}
	if tries := l.promotions + l.failedProm; tries > 0 {
		out["engine.promote_success"] = float64(l.promotions) / float64(tries)
	} else {
		out["engine.promote_success"] = 0
	}
	for _, p := range tracedPolicies {
		out[runMetric(p)] = l.runS[p]
	}
	return out
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocB, gcCycles uint64
	gcCPU, totalCPU  float64
}

// rtDelta is the runtime cost of a phase.
type rtDelta struct{ allocGB, gcCycles, gcCPUFrac float64 }

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocB: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		allocGB:  float64(b.allocB-a.allocB) / 1e9,
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// peakRSSMB is the process's peak resident set (getrusage maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// repeat runs round at least once, and again while another round of the
// median length so far still fits in budget.
func repeat(budget time.Duration, round func() error) error {
	start := time.Now() //chrono:wallclock the measurement budget is host-side
	var lens []float64
	for {
		t0 := time.Now() //chrono:wallclock the measurement budget is host-side
		if err := round(); err != nil {
			return err
		}
		lens = append(lens, time.Since(t0).Seconds()) //chrono:wallclock the measurement budget is host-side
		elapsed := time.Since(start).Seconds()        //chrono:wallclock the measurement budget is host-side
		if elapsed+median(lens) > budget.Seconds() {
			return nil
		}
	}
}

// safely runs f, turning a panic into an error so it counts as a failed
// operation instead of ending the benchmark.
func safely(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	return f()
}
