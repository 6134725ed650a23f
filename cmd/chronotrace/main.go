// Command chronotrace records, inspects, and replays simulation traces.
//
//	chronotrace record -workload pmbench -secs 300 -o run.trace
//	chronotrace info   -i run.trace
//	chronotrace replay -i run.trace -policy Chrono -secs 300
//
// A recorded trace carries the machine shape, every process's page-weight
// pattern (including phase changes), and a placement/metrics timeline, so
// one captured workload can be replayed against any policy.
package main

import (
	"flag"
	"fmt"
	"os"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/trace"
	"chrono/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: chronotrace record|info|replay [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "pmbench", "pmbench|graph500|kvstore|multitenant")
	secs := fs.Float64("secs", 300, "virtual seconds")
	out := fs.String("o", "run.trace", "output file")
	seed := fs.Uint64("seed", 42, "seed")
	procs := fs.Int("procs", 16, "process count")
	ws := fs.Float64("ws", 12, "working set GB per process (pmbench)")
	fatal(fs.Parse(args))

	spec := experiments.SimSpec{
		Workload: *wl, Procs: *procs, WSGB: *ws, TotalGB: *ws * float64(*procs),
		Seed: *seed, DurationS: *secs,
	}.WithDefaults()
	fatal(spec.Validate())
	w, err := spec.NewWorkload()
	fatal(err)
	o, err := spec.Opts()
	fatal(err)
	pol, err := experiments.NewPolicy(spec.Policy)
	fatal(err)
	f, err := os.Create(*out)
	fatal(err)
	rec := trace.NewRecorder(f)
	e, err := experiments.Build(pol, recorded{w, rec}, o)
	fatal(err)
	m := e.Run(o.Duration)
	fatal(rec.Flush())
	fatal(f.Close())
	fmt.Printf("recorded %s: %.0fs virtual, %.1f Mop/s, FMAR %.1f%%\n",
		*out, m.Duration.Seconds(), m.Throughput(), m.FMAR()*100)
}

// recorded attaches the trace recorder as part of the workload build,
// so its tickers register before the policy's and the trace samples
// each instant before the policy acts on it.
type recorded struct {
	workload.Workload
	rec *trace.Recorder
}

func (r recorded) Build(e *engine.Engine) error {
	if err := r.Workload.Build(e); err != nil {
		return err
	}
	return r.rec.Attach(e, r.Name())
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "run.trace", "input file")
	fatal(fs.Parse(args))
	f, err := os.Open(*in)
	fatal(err)
	defer func() { _ = f.Close() }() // read-only: close failure is moot
	tr, err := trace.Read(f)
	fatal(err)
	fmt.Printf("workload:  %s\n", tr.Header.Workload)
	fmt.Printf("machine:   %.0f GB fast + %.0f GB slow (%d pages/GB)\n",
		tr.Header.FastGB, tr.Header.SlowGB, tr.Header.PagesPerGB)
	fmt.Printf("processes: %d\n", len(tr.Processes))
	fmt.Printf("patterns:  %d (%d phase changes)\n", len(tr.Patterns), phaseChanges(tr))
	fmt.Printf("snapshots: %d\n", len(tr.Snapshots))
	if n := len(tr.Snapshots); n > 0 {
		last := tr.Snapshots[n-1]
		fmt.Printf("final:     t=%.0fs FMAR=%.1f%% prom=%d dem=%d\n",
			last.AtSec, last.FMAR*100, last.Promotions, last.Demotions)
	}
}

func phaseChanges(tr *trace.Trace) int {
	n := 0
	for _, p := range tr.Patterns {
		if p.AtSec > 0 {
			n++
		}
	}
	return n
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "run.trace", "input file")
	pol := fs.String("policy", "Chrono", "policy to replay against")
	secs := fs.Float64("secs", 300, "virtual seconds")
	seed := fs.Uint64("seed", 42, "seed")
	fatal(fs.Parse(args))

	f, err := os.Open(*in)
	fatal(err)
	tr, err := trace.Read(f)
	_ = f.Close() // read-only: close failure is moot
	fatal(err)

	spec := experiments.SimSpec{
		Policy: *pol, Seed: *seed, DurationS: *secs,
		FastGB: float64(tr.Header.FastGB), SlowGB: float64(tr.Header.SlowGB),
		PagesPerGB: tr.Header.PagesPerGB,
	}.WithDefaults()
	fatal(spec.Validate())
	o, err := spec.Opts()
	fatal(err)
	p, err := experiments.NewPolicy(spec.Policy)
	fatal(err)
	e, err := experiments.Build(p, &trace.Replay{T: tr}, o)
	fatal(err)
	m := e.Run(o.Duration)
	fmt.Printf("replayed %s under %s: %.1f Mop/s, FMAR %.1f%%, p99 %.0f ns, prom %d\n",
		*in, *pol, m.Throughput(), m.FMAR()*100, m.Lat.Percentile(0.99), m.Promotions)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronotrace:", err)
		os.Exit(1)
	}
}
