// Command chronoctl mirrors the paper's procfs/sysctl administration
// surface (§4, Appendix A step 6) as the client of a running chronod
// daemon. Parameter writes apply live to a hosted run at its next epoch
// boundary through -op reconfigure; the daemon validates every key
// first and answers an unknown one with the parameter table's "did you
// mean" suggestions.
//
//	chronoctl -socket S -op submit -policy Chrono -workload pmbench -secs 120 -wait
//	chronoctl -socket S -op list
//	chronoctl -socket S -op dump -id r0000          # live metrics, memtierd-style
//	chronoctl -socket S -op pause -id r0000
//	chronoctl -socket S -op resume -id r0000
//	chronoctl -socket S -op reconfigure -id r0000 -policy Memtis -set kernel/numa_tiering=1
//	chronoctl -socket S -op reconfigure -id r0000 -set chrono/cit_threshold_ms=200
//	chronoctl -socket S -op cancel -id r0000
//	chronoctl -socket S -op reload
//	chronoctl -socket S -op shutdown
//
// Without -socket, chronoctl only lists the parameter table:
//
//	chronoctl -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"chrono/internal/daemon"
	"chrono/internal/experiments"
	"chrono/internal/report"
)

// setFlags collects repeated -set key=value arguments.
type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var sets setFlags
	var (
		// Daemon-client surface.
		socket = flag.String("socket", "", "chronod unix socket; without it only -list is served")
		op     = flag.String("op", "", "daemon op: ping|submit|status|list|pause|resume|cancel|reconfigure|dump|reload|shutdown")
		id     = flag.String("id", "", "run id for status/pause/resume/cancel/reconfigure/dump")
		wait   = flag.Bool("wait", false, "after submit: poll until the run settles and print its final table")

		// Simulation shape of a submitted run.
		policy  = flag.String("policy", "", "policy name (submit/reconfigure; empty keeps the default or current)")
		wl      = flag.String("workload", "pmbench", "workload: pmbench|graph500|kvstore|multitenant")
		procs   = flag.Int("procs", 0, "process count (pmbench/multitenant)")
		ws      = flag.Float64("ws", 0, "working set GB per process (pmbench)")
		readPct = flag.Float64("read", 0, "read percentage")
		stride  = flag.Int("stride", 0, "pmbench stride")
		total   = flag.Float64("total", 0, "total working set GB (graph500)")
		flavor  = flag.String("flavor", "", "kvstore flavor: memcached|redis")
		setget  = flag.String("setget", "", "kvstore SET:GET mix (1:10 or 1:1)")
		huge    = flag.Bool("huge", false, "map huge pages")
		secs    = flag.Float64("secs", 240, "virtual run seconds")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		fastGB  = flag.Float64("fast", 0, "fast tier GB")
		slowGB  = flag.Float64("slow", 0, "slow tier GB")
		ppg     = flag.Int64("pages-per-gb", 0, "simulated pages per GB (capacity scale)")
		faults  = flag.String("faults", "", "fault-injection plan spec")

		list = flag.Bool("list", false, "list all parameters with their default values")
	)
	flag.Var(&sets, "set", "parameter write for -op reconfigure, key=value (repeatable)")
	flag.Parse()

	if *socket != "" {
		os.Exit(clientMain(&clientArgs{
			socket: *socket, op: *op, id: *id, wait: *wait, policy: *policy,
			sets: sets,
			spec: daemon.RunSpec{
				Policy: *policy, Workload: *wl, Procs: *procs, WSGB: *ws,
				ReadPct: *readPct, Stride: *stride, TotalGB: *total,
				Flavor: *flavor, SetGet: *setget, Huge: *huge, Seed: *seed,
				DurationS: *secs, FastGB: *fastGB, SlowGB: *slowGB,
				PagesPerGB: *ppg, Faults: *faults,
			},
		}))
	}
	os.Exit(localMain(os.Stdout, os.Stderr, sets, *list, *seed))
}

// localMain serves the one flag that needs no daemon, -list. A -set
// without -socket is a usage error: parameter writes go to a running
// simulation through chronod.
func localMain(stdout, stderr io.Writer, sets setFlags, list bool, seed uint64) int {
	if len(sets) > 0 {
		fmt.Fprintln(stderr, "chronoctl: -set writes parameters of a running simulation; "+
			"use -socket S -op reconfigure -id R -set key=value")
		return 2
	}
	if !list {
		flag.Usage()
		return 2
	}
	// Build a live system so the parameter table is fully populated.
	spec := experiments.SimSpec{Workload: "pmbench", Procs: 20, WSGB: 12, Seed: seed}.WithDefaults()
	e, _, err := spec.Build(spec.Policy)
	if err != nil {
		fmt.Fprintln(stderr, "chronoctl:", err)
		return 1
	}
	t := report.NewTable("Runtime parameters (sysctl/procfs controllers)",
		"Path", "Value", "Description")
	for _, p := range e.Sysctl().All() {
		t.AddRow(p.Path, p.Get(), p.Description)
	}
	t.Fprint(stdout)
	return 0
}

// clientArgs carries the daemon-mode invocation.
type clientArgs struct {
	socket string
	op     string
	id     string
	wait   bool
	policy string
	sets   setFlags
	spec   daemon.RunSpec
}

func clientMain(a *clientArgs) int {
	c := &daemon.Client{Socket: a.socket}
	fail := func(msg string) int {
		fmt.Fprintln(os.Stderr, "chronoctl:", msg)
		return 1
	}
	switch a.op {
	case daemon.OpPing:
		resp, err := c.Do(daemon.Request{Op: daemon.OpPing})
		if err != nil {
			return fail(err.Error())
		}
		fmt.Printf("ok (abandoned goroutines: %d)\n", resp.Abandoned)
		return 0

	case daemon.OpSubmit:
		resp, err := c.Do(daemon.Request{Op: daemon.OpSubmit, Spec: &a.spec})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			if resp.RetryAfterS > 0 {
				// Load-shed: the structured retry hint gets a distinct
				// exit status so scripts can back off instead of erroring.
				fmt.Fprintln(os.Stderr, "chronoctl:", resp.Error)
				return 3
			}
			return fail(resp.Error)
		}
		fmt.Printf("submitted %s\n", resp.ID)
		if !a.wait {
			return 0
		}
		return waitForRun(c, resp.ID)

	case daemon.OpStatus:
		resp, err := c.Do(daemon.Request{Op: daemon.OpStatus, ID: a.id})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		printRun(*resp.Run)
		if resp.Table != "" {
			fmt.Print(resp.Table)
		}
		return 0

	case daemon.OpList:
		resp, err := c.Do(daemon.Request{Op: daemon.OpList})
		if err != nil {
			return fail(err.Error())
		}
		t := report.NewTable("chronod runs", "ID", "State", "Policy", "Workload", "Sim time (s)", "Swaps", "Error")
		for _, r := range resp.Runs {
			t.AddRow(r.ID, r.State, r.Policy, r.Spec.Workload, r.SimNowS, r.Swaps, firstLine(r.Error))
		}
		t.Fprint(os.Stdout)
		return 0

	case daemon.OpPause, daemon.OpResume, daemon.OpCancel, daemon.OpDump:
		resp, err := c.Do(daemon.Request{Op: a.op, ID: a.id})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		if resp.Table != "" {
			fmt.Print(resp.Table)
		} else if resp.Run != nil {
			printRun(*resp.Run)
		}
		return 0

	case daemon.OpReconfigure:
		set := map[string]string{}
		for _, kv := range a.sets {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || key == "" {
				return fail(fmt.Sprintf("bad -set %q (want key=value)", kv))
			}
			set[key] = val
		}
		resp, err := c.Do(daemon.Request{Op: daemon.OpReconfigure, ID: a.id, Policy: a.policy, Set: set})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		fmt.Printf("reconfigured %s (%d clock events dropped by the swap)\n", a.id, resp.Dropped)
		printRun(*resp.Run)
		return 0

	case daemon.OpReload, daemon.OpShutdown:
		resp, err := c.Do(daemon.Request{Op: a.op})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		fmt.Println("ok")
		return 0

	default:
		return fail(fmt.Sprintf("unknown -op %q (ping|submit|status|list|pause|resume|cancel|reconfigure|dump|reload|shutdown)", a.op))
	}
}

// waitForRun polls until the run settles, then prints its final state
// and table. Exit status mirrors the run's fate.
func waitForRun(c *daemon.Client, id string) int {
	for {
		resp, err := c.Do(daemon.Request{Op: daemon.OpStatus, ID: id})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronoctl:", err)
			return 1
		}
		if !resp.OK {
			fmt.Fprintln(os.Stderr, "chronoctl:", resp.Error)
			return 1
		}
		switch resp.Run.State {
		case daemon.StateDone:
			fmt.Print(resp.Table)
			return 0
		case daemon.StateFailed, daemon.StateCancelled, daemon.StateInterrupted, daemon.StatePaused:
			printRun(*resp.Run)
			return 1
		}
		time.Sleep(250 * time.Millisecond) //chrono:wallclock client polling cadence
	}
}

func printRun(r daemon.RunInfo) {
	fmt.Printf("%s: %s  policy=%s workload=%s sim=%.1fs", r.ID, r.State, r.Policy, r.Spec.Workload, r.SimNowS)
	if r.Swaps > 0 {
		fmt.Printf(" swaps=%d dropped_events=%d", r.Swaps, r.DroppedEvents)
	}
	if r.AbandonedGoroutine {
		fmt.Print(" abandoned_goroutine=true")
	}
	if r.Error != "" {
		fmt.Printf("\n  error: %s", firstLine(r.Error))
	}
	fmt.Println()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
