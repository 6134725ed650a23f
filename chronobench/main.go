// Command chronobench is the repository's end-to-end benchmark. It runs
// one named workload in this process, measures it for a time budget,
// checks every simulated output, and prints the metrics as the last line
// of standard output:
//
//	chronobench --workload pmbench-fault --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with no hooks
// attached; --trace 1 runs the workload once untraced and once traced and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and the layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchWorkload is one named workload.
type benchWorkload struct {
	endToEnd func(runConfig, *outcome)
	traced   func(runConfig, *outcome)
}

var workloads = map[string]benchWorkload{
	"pmbench-fault":   {pmbenchEndToEnd, pmbenchTraced},
	"adv-sweep":       {advEndToEnd, advTraced},
	"chronod-durable": {chronodEndToEnd, chronodTraced},
}

// runConfig carries the command line into a workload.
type runConfig struct {
	seed     uint64
	budget   time.Duration
	traceOut string
	workDir  string // scratch space inside the checkout
}

// outcome is what a workload reports: operation counts, failures, the
// metric values and the digest of its simulated outputs.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	digest            string
	samples           string // sample counts behind the medians, for the log
	ledger            []ledgerRow
	spanFile          string
}

// fail records a failed operation.
func (o *outcome) fail(err error) {
	o.attempted++
	o.failed++
	o.problems = append(o.problems, err.Error())
}

// check records one correctness comparison.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd fills the end-to-end metrics from per-round and per-job
// samples: medians over rounds, percentiles over jobs.
func (o *outcome) endToEnd(setups, walls, simRate, jobs, jobRate []float64) {
	o.metrics = map[string]float64{
		"setup_s":              median(setups),
		"wall_s":               median(walls),
		"sim_s_per_s":          median(simRate),
		"peak_rss_mb":          peakRSSMB(),
		"submit_to_done_p50_s": median(jobs),
		"submit_to_done_p75_s": quantile(jobs, 0.75),
		"jobs_per_s":           median(jobRate),
	}
	tail := "none (fewer than 20 jobs)"
	if p, ok := tailPercentile(len(jobs)); ok {
		tail = fmt.Sprintf("p%g = %.4f s", p*100, quantile(jobs, p))
	}
	o.samples += fmt.Sprintf("; %d setups; round walls %.4g..%.4g s; tail with >=10 jobs beyond: %s",
		len(setups), quantile(walls, 0), maxOf(walls), tail)
}

// finishTraced fills the per-layer metrics and the self-time ledger of a
// traced phase, and writes its spans.
func (o *outcome) finishTraced(tr *tracer, acc *layers, rt rtDelta, tracedWall, plainWall float64, c runConfig) {
	overhead := 0.0
	if plainWall > 0 {
		overhead = (tracedWall - plainWall) / plainWall
	}
	o.metrics = perLayerMetrics(acc, tr, rt, overhead)
	o.ledger = ledger(tr.spans)
	if c.traceOut != "" {
		if err := tr.write(c.traceOut); err != nil {
			o.fail(fmt.Errorf("write spans: %w", err))
		} else {
			o.spanFile = c.traceOut
		}
	}
}

// ledgerRow is one layer's self time in a traced run.
type ledgerRow struct {
	Layer string
	SelfS float64
}

// ledger ranks layers by self time, largest first. Steps are split by the
// policy that ran them (the last element of a simulation's job ID), since
// one step covers the fault drain and whichever engine or policy event
// fired.
func ledger(spans []span) []ledgerRow {
	keyed := make([]span, len(spans))
	for i, s := range spans {
		if s.Name == "simclock.step" || s.Name == "engine.epoch_tick" {
			s.Name += " [" + s.Job[strings.LastIndex(s.Job, "/")+1:] + "]"
		}
		keyed[i] = s
	}
	self := selfTimes(keyed)
	rows := make([]ledgerRow, 0, len(self))
	//chrono:ordered-irrelevant rows are sorted immediately below
	for name, s := range self {
		rows = append(rows, ledgerRow{name, s})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chronobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pmbench-fault | adv-sweep | chronod-durable")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measurement budget in seconds (at least one round always runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workDir := fs.String("work-dir", "", "scratch directory inside the checkout (default $CARGO_TARGET_DIR or .bench_build); a traced run writes its spans to <work-dir>/traces/<workload>-seed<n>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "chronobench: need --workload (%s), --trace 0|1 and --seconds >= 1\n", workloadNames())
		return 2
	}
	c := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, workDir: *workDir}
	if c.workDir == "" {
		c.workDir = os.Getenv("CARGO_TARGET_DIR")
	}
	if c.workDir == "" {
		c.workDir = ".bench_build"
	}
	if *trace == 1 {
		c.traceOut = filepath.Join(c.workDir, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}

	o := &outcome{}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
		w.traced(c, o)
	} else {
		w.endToEnd(c, o)
	}
	if o.digest != "" {
		if err := checkReference(*name, *seed, o.digest); err != nil {
			o.fail(err)
		} else {
			o.attempted++
		}
	} else if o.failed == 0 {
		o.fail(fmt.Errorf("%s produced no simulated-output digest", *name))
	}

	metrics := map[string]metricValue{}
	for _, s := range specs {
		v, ok := o.metrics[s.Name]
		if !ok && o.failed == 0 {
			o.fail(fmt.Errorf("metric %s was not measured", s.Name))
		}
		metrics[s.Name] = metricValue{Value: zeroNaN(v), Unit: s.Unit}
	}
	res := result{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: metrics}
	printSummary(stdout, *name, *seed, o, specs)
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "chronobench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary prints the human-readable summary that precedes the result line.
func printSummary(out io.Writer, name string, seed uint64, o *outcome, specs []metricSpec) {
	fmt.Fprintf(out, "# %s seed=%d digest=%s\n", name, seed, o.digest)
	if o.samples != "" {
		fmt.Fprintf(out, "# samples: %s\n", strings.TrimPrefix(o.samples, "; "))
	}
	for _, s := range specs {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", s.Name, o.metrics[s.Name], s.Unit)
	}
	errRate := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Fprintf(out, "%-28s %14.6g fraction (%d of %d operations failed)\n", "error_rate", errRate, o.failed, o.attempted)
	if len(o.ledger) > 0 {
		total := 0.0
		for _, r := range o.ledger {
			total += r.SelfS
		}
		fmt.Fprintf(out, "# layer ledger (self time, traced run):\n")
		for _, r := range o.ledger {
			fmt.Fprintf(out, "#   %-24s %10.4f s %6.1f%%\n", r.Layer, r.SelfS, 100*r.SelfS/total)
		}
	}
	if o.spanFile != "" {
		fmt.Fprintf(out, "# spans: %s\n", o.spanFile)
	}
	for _, p := range o.problems {
		fmt.Fprintf(out, "# FAILED: %s\n", p)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	//chrono:ordered-irrelevant keys are sorted immediately below
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}
