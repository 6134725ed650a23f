// Command reproduce regenerates every table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md and the recorded
// outcomes in EXPERIMENTS.md).
//
// Usage:
//
//	reproduce [-experiment all|tab1|tab2|fig1|fig2a|fig2b|fig6|fig7|fig8|
//	           fig9|fig10a|fig10bc|fig10d|fig11|fig11b|fig12|fig13|appb|
//	           ext|drift|seeds|adv]
//	          [-quick] [-seed N] [-duration S] [-j N]
//	          [-faults SPEC] [-retries N] [-failures F]
//	          [-cpuprofile F] [-memprofile F] [-trace F]
//
// -quick shortens run durations ~4x for a fast smoke pass; the shapes
// survive, the converged values get noisier.
//
// -j runs independent simulations of each experiment in parallel (0 =
// GOMAXPROCS). Output is byte-identical at every worker count; see the
// "Parallel sweeps" section of DESIGN.md for why.
//
// -faults enables deterministic fault injection in every run: "aggressive"
// or a spec like "mig=0.2,alloc=0.1:4,pebs=0.25:0.5,delay=0.2:20" (see
// internal/faultinject). The same seed and plan reproduce the same faults
// bit-for-bit. Sweep cells that crash are retried -retries times, then
// recorded in a failure manifest (stderr summary; full JSON repro bundles
// to the -failures file) while the surviving grid still renders.
//
// -checkpoint-dir makes the cells of every experiment that simulates
// durable: each cell periodically snapshots its engine, and its probe's
// samples when it has one (every -checkpoint-interval of wall time),
// records finished cells, and a stall watchdog aborts cells whose
// virtual time stops advancing for -stall-timeout. SIGINT/SIGTERM drain
// gracefully: in-flight cells checkpoint at the next event boundary, the
// failure manifest records their resume pointers, and a second signal
// hard-exits.
// -resume continues a previous invocation from the same directory:
// finished cells are short-circuited, interrupted cells restore from
// their snapshots, and the final output is byte-identical to a run that
// was never interrupted (CI enforces this via `make resume-check`).
// Resuming with conflicting simulation flags (a changed -faults plan,
// seed, duration, or -quick) is rejected with a clear error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/experiments"
	"chrono/internal/faultinject"
	"chrono/internal/parallel"
	"chrono/internal/report"
	"chrono/internal/sigdrain"
	"chrono/internal/simclock"
	"chrono/internal/watchdog"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment id (see doc) or comma list")
		quick    = flag.Bool("quick", false, "short runs (~4x faster, noisier)")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		duration = flag.Float64("duration", 0, "override virtual run seconds (0 = per-experiment default)")
		jsonOut  = flag.String("json", "", "also write all tables as JSON to this file")
		workers  = flag.Int("j", 0, "parallel simulations per experiment (0 = GOMAXPROCS, 1 = serial)")
		faults   = flag.String("faults", "", "fault-injection plan: none|aggressive|mig=P,alloc=P:N,pebs=P:F,delay=P:MS")
		retries  = flag.Int("retries", 1, "extra attempts for a crashed sweep run before it enters the failure manifest")
		failOut  = flag.String("failures", "", "write crashed-run repro bundles as JSON to this file (written only when runs crashed)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = flag.String("trace", "", "write a runtime execution trace to this file")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for durable sweep state (periodic cell snapshots, finished-cell records, failure manifest)")
		resume   = flag.Bool("resume", false, "resume from -checkpoint-dir: skip finished cells, restore interrupted ones")
		ckptIvl  = flag.Duration("checkpoint-interval", 30*time.Second, "wall-clock cadence of periodic cell snapshots (requires -checkpoint-dir)")
		stallTO  = flag.Duration("stall-timeout", 2*time.Minute, "abort a cell whose virtual time makes no progress for this wall-clock window, 0 disables (requires -checkpoint-dir)")
	)
	flag.Parse()

	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "reproduce: -resume requires -checkpoint-dir")
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		fail(trace.Start(f))
		defer func() {
			trace.Stop()
			fail(f.Close())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			fail(err)
			runtime.GC()
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}()
	}

	var emitted []*report.Table
	emit := func(ts ...*report.Table) {
		for _, t := range ts {
			t.Fprint(os.Stdout)
			emitted = append(emitted, t)
		}
	}

	o := experiments.RunOpts{
		Seed: *seed, Workers: parallel.Resolve(*workers), Retries: *retries,
	}
	if *faults != "" {
		plan, err := faultinject.ParsePlan(*faults)
		fail(err)
		o.Faults = plan
	}
	longDur := simclock.Duration(1500) * simclock.Second
	if *quick {
		o.Duration = 240 * simclock.Second
		longDur = 400 * simclock.Second
	}
	if *duration > 0 {
		o.Duration = simclock.FromSeconds(*duration)
		longDur = o.Duration
	}

	// Durable sweeps: validate against the directory's recorded
	// configuration (a resume under different simulation flags would mix
	// incompatible state), then enable per-cell checkpointing.
	if *ckptDir != "" {
		fail(os.MkdirAll(*ckptDir, 0o755))
		fail(validateSweepInfo(*ckptDir, *resume, sweepInfo{
			Seed: *seed, Quick: *quick, DurationS: *duration, Faults: *faults,
		}))
		o.Checkpoint = &experiments.CheckpointOpts{
			Dir:          *ckptDir,
			Resume:       *resume,
			Interval:     *ckptIvl,
			StallTimeout: *stallTO,
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the sweep
	// context — unstarted cells are skipped, in-flight cells drain to a
	// resume snapshot at their next event boundary. A second signal
	// hard-exits immediately (see internal/sigdrain).
	ctx, stopDrain := sigdrain.Install(context.Background(), sigdrain.Options{Name: "reproduce"})
	defer stopDrain()
	o.Ctx = ctx

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"tab1", "tab2", "fig1", "fig2a", "fig2b", "fig6", "fig7", "fig8",
			"fig9", "fig10a", "fig10bc", "fig10d", "fig11", "fig11b", "fig12", "fig13", "appb",
			"ext", "drift", "seeds", "adv"}
	}

	// failedRuns accumulates the failure manifest across every sweep; it
	// is empty (and produces no output) on a healthy run.
	var failedRuns []experiments.FailedRun

	// drained flips when a graceful shutdown (or a sweep's own Interrupted
	// report) stops the experiment loop early.
	drained := false
	collect := func(out experiments.Outcome) {
		failedRuns = append(failedRuns, out.Failed...)
		drained = drained || out.Interrupted
	}
	sweep := func(s *experiments.Sweep, err error) error {
		if err != nil {
			return err
		}
		collect(s.Outcome)
		emit(s.Tables...)
		return nil
	}

	// Figures 6, 7 and 8 share their runs; cache the sweep.
	var pmbench *experiments.PmbenchSweep
	getSweep := func() (*experiments.PmbenchSweep, error) {
		if pmbench == nil {
			var err error
			pmbench, err = experiments.RunPmbenchSweep(
				experiments.Fig6a, experiments.StandardPolicies, experiments.RWRatios, o)
			if err != nil {
				return nil, err
			}
			collect(pmbench.Outcome)
		}
		return pmbench, nil
	}

	// withDur gives an experiment its own run length unless -quick or
	// -duration chose one.
	withDur := func(d simclock.Duration) experiments.RunOpts {
		ro := o
		if ro.Duration == 0 {
			ro.Duration = d
		}
		return ro
	}

	// runOne executes one experiment id and emits its tables. An error
	// return aborts: a context cancellation counts as a graceful drain,
	// anything else is fatal.
	runOne := func(id string) error {
		switch id {
		case "tab1":
			emit(experiments.Table1())
		case "tab2":
			emit(experiments.Table2())
		case "fig1":
			return sweep(experiments.RunFig1(o))
		case "fig2a":
			return sweep(experiments.RunFig2a(experiments.StandardPolicies, o))
		case "fig2b":
			return sweep(experiments.RunFig2b(o))
		case "fig6":
			s, err := getSweep()
			if err != nil {
				return err
			}
			emit(s.ThroughputTable())
			// The 6b/6c panels run their own (smaller) grids.
			for _, cfg := range []experiments.PmbenchConfig{experiments.Fig6b, experiments.Fig6c} {
				sw, err := experiments.RunPmbenchSweep(cfg, experiments.StandardPolicies, experiments.RWRatios, o)
				if err != nil {
					return err
				}
				collect(sw.Outcome)
				emit(sw.ThroughputTable())
			}
		case "fig7":
			s, err := getSweep()
			if err != nil {
				return err
			}
			emit(s.BaselineLatencyCDF())
			emit(s.LatencyTables()...)
		case "fig8":
			s, err := getSweep()
			if err != nil {
				return err
			}
			emit(s.RuntimeCharacteristics())
		case "fig9":
			return sweep(experiments.RunFig9(experiments.StandardPolicies, withDur(longDur)))
		case "fig10a":
			return sweep(experiments.RunFig10a(o))
		case "fig10bc":
			return sweep(experiments.RunFig10bc(withDur(longDur)))
		case "fig10d":
			return sweep(experiments.RunFig10d(shortened(o, 300)))
		case "fig11":
			return sweep(experiments.RunFig11a(experiments.StandardPolicies, o))
		case "fig11b":
			return sweep(experiments.RunFig11b(shortened(o, 300)))
		case "fig12":
			return sweep(experiments.RunFig12(experiments.StandardPolicies, o))
		case "fig13":
			// The semi-automatic variants converge at a fixed 120 MB/s
			// rate limit; the design-choice comparison needs the paper's
			// full run length.
			return sweep(experiments.RunFig13(withDur(longDur)))
		case "seeds":
			return sweep(experiments.RunSeedStability(o))
		case "ext":
			return sweep(experiments.RunExtendedComparison(o))
		case "drift":
			return sweep(experiments.RunDrift(
				[]string{"Linux-NB", "Memtis", "Chrono"}, 240, withDur(1200*simclock.Second)))
		case "adv":
			return sweep(experiments.RunAdversarial(shortened(o, 300)))
		case "appb":
			emit(experiments.AppB1Table(*seed, 20000))
			emit(experiments.FigB1Table())
			emit(experiments.FigB2Table())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		return nil
	}

	for _, id := range ids {
		if ctx.Err() != nil {
			drained = true
			break
		}
		start := time.Now() //chrono:wallclock progress reporting on stderr, never enters results
		if err := runOne(strings.TrimSpace(id)); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				drained = true
				break
			}
			fail(err)
		}
		//chrono:wallclock progress reporting on stderr, never enters results
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		if drained {
			break
		}
	}

	if *jsonOut != "" {
		fail(writeJSONAtomic(*jsonOut, emitted))
		fmt.Fprintf(os.Stderr, "wrote %d tables to %s\n", len(emitted), *jsonOut)
	}

	// The failure manifest is written atomically (write + rename): a crash
	// or signal mid-write can never leave a truncated manifest behind. With
	// a checkpoint directory it also lands at <dir>/failures.json so a bare
	// `-resume` run finds the resume pointers without extra flags.
	if len(failedRuns) > 0 {
		crashed := 0
		for i := range failedRuns {
			if !failedRuns[i].Interrupted && !failedRuns[i].Stalled {
				crashed++
			}
		}
		if crashed > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %d run(s) crashed every attempt; their table cells read FAILED\n", crashed)
		}
		if n := watchdog.Abandoned(); n > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %d hard-stalled run goroutine(s) were abandoned and leak until exit; see abandoned_goroutine entries in the failure manifest\n", n)
		}
		for i := range failedRuns {
			fmt.Fprintln(os.Stderr, "  "+failedRuns[i].String())
		}
		if *failOut != "" {
			fail(writeJSONAtomic(*failOut, failedRuns))
			fmt.Fprintf(os.Stderr, "wrote %d repro bundles to %s\n", len(failedRuns), *failOut)
		}
	}
	if *ckptDir != "" {
		manifest := filepath.Join(*ckptDir, "failures.json")
		if len(failedRuns) > 0 {
			fail(writeJSONAtomic(manifest, failedRuns))
		} else if !drained {
			// A clean, complete run invalidates any stale manifest.
			if err := os.Remove(manifest); err != nil && !os.IsNotExist(err) {
				fail(err)
			}
		}
	}

	if drained {
		hint := ""
		if *ckptDir != "" {
			hint = fmt.Sprintf("rerun with -resume -checkpoint-dir %s to continue", *ckptDir)
		}
		sigdrain.Drained(sigdrain.Options{Name: "reproduce"}, hint)
	}
}

// writeJSONAtomic marshals v (indented) and writes it with the checkpoint
// package's write-to-temp-then-rename discipline, so manifests are always
// observed either whole or absent.
func writeJSONAtomic(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, append(raw, '\n'))
}

// sweepInfo pins the simulation-shaping flags of a checkpoint directory.
// Every field changes which cells exist or what they compute, so a resume
// under different values would silently mix incompatible state.
type sweepInfo struct {
	Seed      uint64  `json:"seed"`
	Quick     bool    `json:"quick"`
	DurationS float64 `json:"duration_s"`
	Faults    string  `json:"faults"`
}

// validateSweepInfo records cur in a fresh checkpoint directory, and on
// -resume rejects any drift from the recorded configuration with an error
// naming the offending flag.
func validateSweepInfo(dir string, resume bool, cur sweepInfo) error {
	path := filepath.Join(dir, "sweepinfo.json")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return writeJSONAtomic(path, cur)
	}
	if err != nil {
		return err
	}
	var prev sweepInfo
	if jerr := json.Unmarshal(raw, &prev); jerr != nil {
		return fmt.Errorf("corrupt %s (%v); delete it or use a fresh -checkpoint-dir", path, jerr)
	}
	if prev == cur {
		return nil
	}
	if !resume {
		// A fresh (non-resume) invocation may repurpose the directory;
		// cells keyed by the old configuration simply become unreachable.
		return writeJSONAtomic(path, cur)
	}
	conflict := func(flagName string, was, now any) error {
		return fmt.Errorf("resume configuration conflict: %s was %v, now %v — rerun with the original flags or use a fresh -checkpoint-dir", flagName, was, now)
	}
	switch {
	case prev.Faults != cur.Faults:
		return conflict("-faults", fmt.Sprintf("%q", prev.Faults), fmt.Sprintf("%q", cur.Faults))
	case prev.Seed != cur.Seed:
		return conflict("-seed", prev.Seed, cur.Seed)
	case prev.Quick != cur.Quick:
		return conflict("-quick", prev.Quick, cur.Quick)
	default:
		return conflict("-duration", prev.DurationS, cur.DurationS)
	}
}

// shortened caps the duration of sweep-heavy experiments.
func shortened(o experiments.RunOpts, seconds float64) experiments.RunOpts {
	if o.Duration == 0 || o.Duration > simclock.FromSeconds(seconds) {
		o.Duration = simclock.FromSeconds(seconds)
	}
	return o
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}
