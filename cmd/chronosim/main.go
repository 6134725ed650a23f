// Command chronosim runs one tiered-memory simulation from the command
// line and prints its metrics — the quickest way to poke at a policy or a
// workload without the full reproduce harness.
//
// Examples:
//
//	chronosim -policy Chrono -workload pmbench -procs 50 -ws 5 -read 70 -secs 600
//	chronosim -policy Memtis -workload kvstore -flavor redis -secs 300 -huge
//	chronosim -policy Linux-NB -workload graph500 -total 192 -secs 300
//	chronosim -policy Chrono -workload multitenant -secs 900 -series
//
// The flags fill an experiments.SimSpec, the same description chronod
// accepts: a zero value selects the default, and a spec the shared
// validator rejects exits with status 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"chrono/internal/experiments"
	"chrono/internal/report"
)

func main() {
	var (
		polName = flag.String("policy", "Chrono", "policy: Linux-NB|AutoTiering|Multi-Clock|TPP|Memtis|Chrono|Chrono-basic|...")
		wl      = flag.String("workload", "pmbench", "workload: pmbench|graph500|kvstore|multitenant")
		procs   = flag.Int("procs", 50, "process count (pmbench/multitenant)")
		ws      = flag.Float64("ws", 5, "working set GB per process (pmbench)")
		readPct = flag.Float64("read", 70, "read percentage")
		stride  = flag.Int("stride", 2, "pmbench stride")
		total   = flag.Float64("total", 256, "total working set GB (graph500)")
		flavor  = flag.String("flavor", "memcached", "kvstore flavor: memcached|redis")
		setget  = flag.String("setget", "1:10", "kvstore SET:GET mix (1:10 or 1:1)")
		secs    = flag.Float64("secs", 600, "virtual duration seconds")
		huge    = flag.Bool("huge", false, "map huge pages")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		series  = flag.Bool("series", false, "print per-process DRAM placement at the end")
		fastGB  = flag.Float64("fast", 64, "fast tier GB")
		slowGB  = flag.Float64("slow", 192, "slow tier GB")
		ppg     = flag.Int64("pages-per-gb", 0, "simulated pages per GB (0 = default 256; 262144 = full fidelity, one page per real 4 KB)")
	)
	flag.Parse()

	spec := experiments.SimSpec{
		Policy: *polName, Workload: *wl, Procs: *procs, WSGB: *ws, ReadPct: *readPct,
		Stride: *stride, TotalGB: *total, Flavor: *flavor, SetGet: *setget, Huge: *huge,
		Seed: *seed, DurationS: *secs, FastGB: *fastGB, SlowGB: *slowGB, PagesPerGB: *ppg,
	}.WithDefaults()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "chronosim:", err)
		os.Exit(2)
	}
	res, err := run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronosim:", err)
		os.Exit(1)
	}
	experiments.SummaryTable(res, spec.DurationS).Fprint(os.Stdout)

	if *series {
		pt := report.NewTable("Final placement per process", "PID", "Name", "DRAM %")
		for _, p := range res.Engine.Processes() {
			pt.AddRow(p.PID, p.Name, res.Engine.DRAMPagePercent(p.PID))
		}
		pt.Fprint(os.Stdout)
	}
}

// run executes a validated spec.
func run(spec experiments.SimSpec) (*experiments.Result, error) {
	w, err := spec.NewWorkload()
	if err != nil {
		return nil, err
	}
	o, err := spec.Opts()
	if err != nil {
		return nil, err
	}
	return experiments.Run(spec.Policy, w, o)
}
