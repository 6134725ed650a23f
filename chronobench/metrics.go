package main

// Metric registry and the order statistics every workload reports with.
// The names and units here are the benchmark's contract with
// BENCHMARK.json: an end-to-end run prints exactly endToEnd, a traced run
// exactly perLayer, and TestMetricNames and TestBenchmarkJSONMatches keep
// both lists valid and in step.

import (
	"math"
	"sort"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the user-visible metrics, measured with tracing off. Every
// workload reports all of them; see README.md for what a "job" is on each.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_s_per_s", "s/s"},
	{"peak_rss_mb", "MB"},
	{"submit_to_done_p50_s", "s"},
	{"submit_to_done_p75_s", "s"},
	{"jobs_per_s", "1/s"},
}

// tracedPolicies are the policies with a run_s.<Policy> per-layer metric:
// the union of what the three workloads run.
var tracedPolicies = []string{
	"Chrono", "TPP", "Linux-NB", "TPP+guard", "Memtis", "Memtis+guard",
	"FlexMem", "FlexMem+guard", "Chrono+guard", "Nomad",
}

// perLayer are the traced run's metrics. Layers a workload does not
// exercise report 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"workload.build_s", "s"},
		{"workload.pages", "count"},
		{"engine.new_s", "s"},
		{"policy.attach_s", "s"},
	}
	for _, p := range tracedPolicies {
		m = append(m, metricSpec{runMetric(p), "s"})
	}
	return append(m,
		metricSpec{"engine.faults", "count"},
		metricSpec{"engine.ns_per_fault", "ns"},
		metricSpec{"engine.epoch_p50_ms", "ms"},
		metricSpec{"engine.epoch_max_ms", "ms"},
		metricSpec{"engine.promotions", "count"},
		metricSpec{"engine.demotions", "count"},
		metricSpec{"engine.promote_success", "fraction"},
		metricSpec{"engine.migrated_gb", "GB"},
		metricSpec{"simclock.events", "count"},
		metricSpec{"simclock.step_p50_us", "us"},
		metricSpec{"simclock.step_p99_us", "us"},
		metricSpec{"simclock.step_max_ms", "ms"},
		metricSpec{"parallel.busy_frac", "fraction"},
		metricSpec{"parallel.straggler_s", "s"},
		metricSpec{"engine.snapshot_s", "s"},
		metricSpec{"checkpoint.save_s", "s"},
		metricSpec{"checkpoint.load_s", "s"},
		metricSpec{"checkpoint.bytes_mb", "MB"},
		metricSpec{"engine.restore_s", "s"},
		metricSpec{"daemon.rpc_p50_ms", "ms"},
		metricSpec{"daemon.rpc_p99_ms", "ms"},
		metricSpec{"daemon.queue_wait_s", "s"},
		metricSpec{"daemon.pause_s", "s"},
		metricSpec{"daemon.resume_s", "s"},
		metricSpec{"runtime.alloc_gb", "GB"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"runtime.gc_cpu_frac", "fraction"},
		metricSpec{"bench.trace_overhead_frac", "fraction"},
	)
}()

// runMetric is the per-policy run-time metric name: policy names may
// carry characters a metric name may not ("Memtis+guard").
func runMetric(policy string) string { return "run_s." + sanitize(policy) }

// sanitize maps every character outside [A-Za-z0-9_.-] to '-'.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
			return r
		}
		return '-'
	}, s)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

// tailGrid are the percentiles a tail is reported at, highest first.
var tailGrid = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest percentile of tailGrid that leaves
// at least ten of n samples beyond it, and false when even the median
// does not.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailGrid {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// zeroNaN maps an undefined statistic (no samples) to 0, the value an idle
// layer reports.
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
