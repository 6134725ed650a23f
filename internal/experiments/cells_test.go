package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/faultinject"
	"chrono/internal/report"
	"chrono/internal/run"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// tablesText renders tables as reproduce prints them.
func tablesText(ts []*report.Table) string {
	var b strings.Builder
	for _, t := range ts {
		t.Fprint(&b)
	}
	return b.String()
}

// doneFiles maps each .done file under dir's cells to its FileInfo.
func doneFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "cells", "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]os.FileInfo)
	for _, p := range paths {
		if !strings.HasSuffix(p, ".done") {
			t.Fatalf("finished sweep left %s behind", filepath.Base(p))
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fi
	}
	return out
}

// TestSweepsResumeFromDoneRecords: every sweep that runs through
// runCells writes exactly one .done record per grid cell, and a resumed
// run short-circuits every cell — no record is rewritten — to tables
// byte-identical to the first run's. The records of fig1, fig2a, fig2b,
// fig9, fig10a, fig10bc, ext, seeds and drift read the live engine, so
// this is also their JSON round trip: a record that fails to encode
// (NaN, Inf) leaves its cell without a .done file, and one that loses a
// field renders differently on resume.
func TestSweepsResumeFromDoneRecords(t *testing.T) {
	pmbench := func(o RunOpts) (*Sweep, error) {
		s, err := RunPmbenchSweep(Fig6a, StandardPolicies, RWRatios, o)
		if err != nil {
			return nil, err
		}
		ts := append(s.LatencyTables(), s.ThroughputTable(), s.BaselineLatencyCDF(), s.RuntimeCharacteristics())
		return &Sweep{Tables: ts, Outcome: s.Outcome}, nil
	}
	for _, tc := range []struct {
		name  string
		cells int
		run   func(RunOpts) (*Sweep, error)
	}{
		{"fig1", 4, RunFig1},
		{"fig2b", 2, RunFig2b},
		{"fig6", 24, pmbench},
		{"fig10d", 28, RunFig10d},
		{"fig11", 36, func(o RunOpts) (*Sweep, error) { return RunFig11a(StandardPolicies, o) }},
		{"fig11b", 28, RunFig11b},
		{"fig12", 24, func(o RunOpts) (*Sweep, error) { return RunFig12(StandardPolicies, o) }},
		{"fig13", 24, RunFig13},
		{"ext", 9, RunExtendedComparison},
		{"seeds", 10, RunSeedStability},
		{"adv", 27, RunAdversarial},
		{"fig2a", 6, func(o RunOpts) (*Sweep, error) { return RunFig2a(StandardPolicies, o) }},
		{"fig9", 6, func(o RunOpts) (*Sweep, error) { return RunFig9(StandardPolicies, o) }},
		{"fig10a", 1, RunFig10a},
		{"fig10bc", 1, RunFig10bc},
		{"drift", 3, func(o RunOpts) (*Sweep, error) { return RunDrift([]string{"Linux-NB", "Memtis", "Chrono"}, 10, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := RunOpts{
				Duration: 20 * simclock.Second, PagesPerGB: 16, Workers: 2,
				Checkpoint: &CheckpointOpts{Dir: dir, Interval: time.Hour},
			}
			first, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Failed) != 0 || first.Interrupted {
				t.Fatalf("first run: %d failed cells, interrupted=%v", len(first.Failed), first.Interrupted)
			}
			before := doneFiles(t, dir)
			if len(before) != tc.cells {
				t.Fatalf("%d .done records for %d cells", len(before), tc.cells)
			}
			o.Checkpoint.Resume = true
			resumed, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			for name, fi := range doneFiles(t, dir) {
				if !os.SameFile(before[name], fi) {
					t.Fatalf("resume re-ran cell %s", name)
				}
			}
			if got, want := tablesText(resumed.Tables), tablesText(first.Tables); got != want {
				t.Fatalf("resumed tables differ:\n-- first --\n%s\n-- resumed --\n%s", want, got)
			}
		})
	}
}

// TestFailedCellRendersFailed: a cell that panics in every attempt lands
// in the failure manifest, its table cell reads FAILED, and the rest of
// the figure renders, both of Figure 12's tables included.
func TestFailedCellRendersFailed(t *testing.T) {
	pols := []string{"Linux-NB", "Chrono"}
	cells := fig12Cells(pols)
	cells[1].Workload = mkCrashWorkload // Memcached, 1:10, Chrono
	thr, out, err := runCells(cells, RunOpts{Duration: 20 * simclock.Second, PagesPerGB: 16, Workers: 2}, false, throughput)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 1 || out.Interrupted {
		t.Fatalf("failure manifest %+v, interrupted=%v; want the one crashed cell", out.Failed, out.Interrupted)
	}
	if f := out.Failed[0]; f.Spec.Policy != "Chrono" || !strings.Contains(f.PanicValue, "injected test crash") {
		t.Fatalf("manifest entry %s", f)
	}
	ts := fig12Tables(pols, thr)
	if len(ts) != 2 {
		t.Fatalf("%d tables, want 2", len(ts))
	}
	for ti, tb := range ts {
		for ri, row := range tb.Rows {
			failed := slices.Contains(row, "FAILED")
			if want := ti == 0 && ri == 0; failed != want || (want && row[2] != "FAILED") {
				t.Fatalf("table %d row %d = %v", ti, ri, row)
			}
		}
	}
}

// TestAdversarialDrainKeepsResumePointers: a sweep drained mid-flight
// returns no error; its in-flight cells enter the failure manifest as
// interrupted, each with a resume snapshot, and a resumed sweep finishes
// byte-identical to an uninterrupted one.
func TestAdversarialDrainKeepsResumePointers(t *testing.T) {
	o := RunOpts{Duration: 30 * simclock.Second, Workers: 2}
	ref, err := RunAdversarial(o)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	// The first simulation step of the first cell cancels the sweep.
	run.StallTestHook = func(now simclock.Time) simclock.Time {
		once.Do(cancel)
		return now
	}
	defer func() { run.StallTestHook = nil }()
	o.Ctx = ctx
	o.Checkpoint = &CheckpointOpts{Dir: t.TempDir(), Interval: time.Hour}
	s, err := RunAdversarial(o)
	if err != nil {
		t.Fatalf("drained sweep returned an error: %v", err)
	}
	if !s.Interrupted || len(s.Failed) == 0 {
		t.Fatalf("drained sweep: interrupted=%v, %d manifest entries", s.Interrupted, len(s.Failed))
	}
	for _, f := range s.Failed {
		if !f.Interrupted || f.ResumeCkpt == "" {
			t.Fatalf("drained cell without a resume pointer: %s", f)
		}
		if _, err := os.Stat(f.ResumeCkpt); err != nil {
			t.Fatal(err)
		}
	}

	run.StallTestHook = nil
	o.Ctx = nil
	o.Checkpoint.Resume = true
	resumed, err := RunAdversarial(o)
	if err != nil || len(resumed.Failed) != 0 || resumed.Interrupted {
		t.Fatalf("resume: err=%v failed=%d interrupted=%v", err, len(resumed.Failed), resumed.Interrupted)
	}
	if got, want := tablesText(resumed.Tables), tablesText(ref.Tables); got != want {
		t.Fatalf("resumed sweep differs from the uninterrupted one:\n%s\nvs\n%s", got, want)
	}
}

// TestCellKeysStable pins the keys of a fig6 and an adv cell at their
// values from before RunSpec gained Param, so checkpoint directories
// written then still resume.
func TestCellKeysStable(t *testing.T) {
	quick := RunOpts{Seed: 42, Duration: 240 * simclock.Second}.withDefaults()
	fig6 := Cell{
		Experiment: fmt.Sprintf("pmbench/%s/rw=%s", Fig6a.Label, RatioLabel(70)),
		Policy:     "Chrono",
		Workload: func() workload.Workload {
			return &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2, Mode: DefaultModeFor("Chrono")}
		},
	}
	faulted := quick
	faulted.Faults = faultinject.Aggressive()
	adv := Cell{Experiment: "adv/rotation", Policy: "Memtis+guard", Workload: func() workload.Workload { return &workload.Rotation{} }}
	for _, tc := range []struct {
		cell Cell
		o    RunOpts
		want string
	}{
		{fig6, quick, "b5f6fde716301052"},
		{adv, faulted, "d94264bc4570fdc3"},
	} {
		if got := cellKey(specFor(tc.cell, tc.cell.Workload(), tc.o)); got != tc.want {
			t.Errorf("%s/%s: key %s, want %s", tc.cell.Experiment, tc.cell.Policy, got, tc.want)
		}
	}
}

// resolveFuzzCell runs (or, from a .done record in dir, short-circuits)
// one of FuzzCellDone's two cells: a fig6 cell rendered through every
// Figure 6-8 table, or a cell with a live ext record.
func resolveFuzzCell(dir string, ext bool) error {
	o := RunOpts{
		Seed: 7, FastGB: 1, SlowGB: 3, Duration: simclock.Second,
		Checkpoint: &CheckpointOpts{Dir: dir, Resume: true, Interval: time.Hour},
	}
	if ext {
		cell := Cell{Experiment: "ext", Policy: "Chrono", Workload: mkDurableWorkload}
		rows, _, err := runCells([]Cell{cell}, o, true, extRecord)
		if err == nil && rows[0] == nil {
			return fmt.Errorf("ext cell did not finish")
		}
		return err
	}
	s, err := RunPmbenchSweep(PmbenchConfig{Label: "fuzz", Processes: 2, WorkingSetGB: 1},
		[]string{"Linux-NB"}, []float64{70}, o)
	if err != nil {
		return err
	}
	if s.Results[0][0] == nil {
		return fmt.Errorf("fig6 cell did not finish")
	}
	s.ThroughputTable()
	s.LatencyTables()
	s.BaselineLatencyCDF()
	s.RuntimeCharacteristics()
	return nil
}

// FuzzCellDone writes arbitrary bytes as the payload of a .done file in
// a valid envelope, and resolves the cell it is named for: the cell must
// short-circuit, re-run, or return an error — never panic. Each input is
// tried as a fig6 record (metrics) and an ext record (metrics plus a
// stored record). The seeds are the two records as a fresh run writes
// them.
func FuzzCellDone(f *testing.F) {
	var names [2]string
	for i, ext := range []bool{false, true} {
		dir := f.TempDir()
		if err := resolveFuzzCell(dir, ext); err != nil {
			f.Fatal(err)
		}
		paths, _ := filepath.Glob(filepath.Join(dir, "cells", "*.done"))
		if len(paths) != 1 {
			f.Fatalf("%d .done records, want 1", len(paths))
		}
		var payload json.RawMessage
		if err := checkpoint.Load(paths[0], &payload); err != nil {
			f.Fatal(err)
		}
		names[i] = filepath.Base(paths[0])
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for i, ext := range []bool{false, true} {
			dir := t.TempDir()
			path := filepath.Join(dir, "cells", names[i])
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			env := fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"payload":%s}`,
				checkpoint.Magic, checkpoint.Version, crc32.ChecksumIEEE(payload), payload)
			if err := os.WriteFile(path, []byte(env), 0o644); err != nil {
				t.Fatal(err)
			}
			_ = resolveFuzzCell(dir, ext)
		}
	})
}

// The four probe kinds (fig10bc's histories need none), each as one
// Chrono cell, with what FuzzCellProbe and the drain test need of them.
var probeKinds = []struct {
	name string
	run  func(RunOpts) (*Sweep, error)
	cell Cell
	// render records a finished cell and renders its figure.
	render func(*Result) []*report.Table
	// bad is probe state that fails to decode or check.
	bad string
}{
	{
		"fig2a", func(o RunOpts) (*Sweep, error) { return RunFig2a([]string{"Chrono"}, o) },
		fig2aCells([]string{"Chrono"})[0],
		func(res *Result) []*report.Table {
			r := fig2aRecord(res)
			return []*report.Table{fig2aTable([]string{"Chrono"}, []*scored{&r})}
		},
		`{"Cls":[]}`,
	},
	{
		"fig9", func(o RunOpts) (*Sweep, error) { return RunFig9([]string{"Chrono"}, o) },
		fig9Cells([]string{"Chrono"})[0],
		func(res *Result) []*report.Table {
			r := fig9Record(res)
			return fig9Tables([]string{"Chrono"}, []*fig9Series{&r})
		},
		`{"Series":[{"T":[10],"V":[50]}]}`,
	},
	{
		"fig10a", RunFig10a, fig10aCell(),
		func(res *Result) []*report.Table {
			r := fig10aRecord(res)
			return []*report.Table{fig10aTable(&r)}
		},
		`{"Sum":[1],"SumSq":[1],"Samples":[1]}`,
	},
	{
		"drift", func(o RunOpts) (*Sweep, error) { return RunDrift([]string{"Chrono"}, 20, o) },
		driftCells([]string{"Chrono"}, 20)[0],
		func(res *Result) []*report.Table {
			r := driftRecord(res)
			return []*report.Table{driftTable([]string{"Chrono"}, []*drift{&r})}
		},
		`{"Recall":[]}`,
	},
}

// drainAfterSample drains a probe run at 40 virtual seconds, once every
// probe has sampled (fig2a's first sample is at 30 s), and returns the
// cell's resume snapshot.
func drainAfterSample(t *testing.T, run1 func(RunOpts) (*Sweep, error), o RunOpts) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run.StallTestHook = func(now simclock.Time) simclock.Time {
		if now >= 40*simclock.Second {
			cancel()
		}
		return now
	}
	defer func() { run.StallTestHook = nil }()
	o.Ctx = ctx
	s, err := run1(o)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Interrupted || len(s.Failed) != 1 || s.Failed[0].ResumeCkpt == "" {
		t.Fatalf("drained run: interrupted=%v, manifest %v", s.Interrupted, s.Failed)
	}
	return s.Failed[0].ResumeCkpt
}

// TestProbeCellsDrainAndResume: a probe cell drained after its probe has
// sampled leaves a snapshot that holds the probe's state. Resuming from
// it renders tables byte-identical to an uninterrupted run; so does
// resuming from the same snapshot with probe state that fails to decode
// or check, which replays the cell from scratch.
func TestProbeCellsDrainAndResume(t *testing.T) {
	for _, kind := range probeKinds {
		t.Run(kind.name, func(t *testing.T) {
			o := RunOpts{Duration: 120 * simclock.Second, PagesPerGB: 16}
			ref, err := kind.run(o)
			if err != nil {
				t.Fatal(err)
			}
			want := tablesText(ref.Tables)

			o.Checkpoint = &CheckpointOpts{Dir: t.TempDir(), Interval: time.Hour}
			path := drainAfterSample(t, kind.run, o)
			var ck cellCheckpoint
			if err := checkpoint.Load(path, &ck); err != nil {
				t.Fatal(err)
			}
			fresh, _ := json.Marshal(kind.cell.probe())
			if string(ck.Probe) == string(fresh) {
				t.Fatalf("snapshot holds an empty probe: %s", ck.Probe)
			}

			o.Checkpoint.Resume = true
			resumed, err := kind.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Interrupted || len(resumed.Failed) != 0 {
				t.Fatalf("resume: interrupted=%v failed=%v", resumed.Interrupted, resumed.Failed)
			}
			if got := tablesText(resumed.Tables); got != want {
				t.Fatalf("resumed tables differ:\n-- uninterrupted --\n%s\n-- resumed --\n%s", want, got)
			}

			// The same snapshot with bad probe state, and the cell's
			// record gone.
			ck.Probe = json.RawMessage(kind.bad)
			if err := checkpoint.Save(path, ck); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(strings.TrimSuffix(path, ".ckpt") + ".done"); err != nil {
				t.Fatal(err)
			}
			replayed, err := kind.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(replayed.Failed) != 0 {
				t.Fatalf("replay: failed=%v", replayed.Failed)
			}
			if got := tablesText(replayed.Tables); got != want {
				t.Fatalf("replayed tables differ:\n-- uninterrupted --\n%s\n-- replayed --\n%s", want, got)
			}
		})
	}
}

// TestTimeSeriesFiguresRenderFailedCell: in each of the five time-series
// experiments, a cell that panics on every attempt enters the failure
// manifest and reads FAILED, and the rest of the figure renders.
func TestTimeSeriesFiguresRenderFailedCell(t *testing.T) {
	o := RunOpts{Duration: 20 * simclock.Second, PagesPerGB: 16, Workers: 2}
	pols := []string{"Linux-NB", "Chrono"}
	// crash makes the last cell panic.
	crash := func(cells []Cell) []Cell {
		cells[len(cells)-1].Workload = mkCrashWorkload
		return cells
	}
	for _, tc := range []struct {
		name string
		// single is a one-cell figure, which reads FAILED throughout.
		single bool
		run    func() ([]*report.Table, Outcome, error)
	}{
		{"fig2a", false, func() ([]*report.Table, Outcome, error) {
			recs, out, err := runCells(crash(fig2aCells(pols)), o, true, fig2aRecord)
			if err != nil {
				return nil, out, err
			}
			return []*report.Table{fig2aTable(pols, recs)}, out, nil
		}},
		{"fig9", false, func() ([]*report.Table, Outcome, error) {
			recs, out, err := runCells(crash(fig9Cells(pols)), o, true, fig9Record)
			if err != nil {
				return nil, out, err
			}
			return fig9Tables(pols, recs), out, nil
		}},
		{"fig10a", true, func() ([]*report.Table, Outcome, error) {
			recs, out, err := runCells(crash([]Cell{fig10aCell()}), o, true, fig10aRecord)
			if err != nil {
				return nil, out, err
			}
			return []*report.Table{fig10aTable(recs[0])}, out, nil
		}},
		{"fig10bc", true, func() ([]*report.Table, Outcome, error) {
			recs, out, err := runCells(crash([]Cell{fig10bcCell()}), o, true, tuningRecord)
			if err != nil {
				return nil, out, err
			}
			return fig10bcTables(recs[0]), out, nil
		}},
		{"drift", false, func() ([]*report.Table, Outcome, error) {
			recs, out, err := runCells(crash(driftCells(pols, 10)), o, true, driftRecord)
			if err != nil {
				return nil, out, err
			}
			return []*report.Table{driftTable(pols, recs)}, out, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Failed) != 1 || out.Interrupted || !strings.Contains(out.Failed[0].PanicValue, "injected test crash") {
				t.Fatalf("failure manifest %v, interrupted=%v; want the one crashed cell", out.Failed, out.Interrupted)
			}
			if len(ts) == 0 {
				t.Fatal("no tables")
			}
			for ti, tb := range ts {
				for ri, row := range tb.Rows {
					failed := slices.Contains(row, "FAILED")
					if want := tc.single || ri == len(tb.Rows)-1; failed != want {
						t.Fatalf("table %d row %d = %v", ti, ri, row)
					}
				}
			}
		})
	}
}

// TestCellKeyCarriesMemoryScale: a checkpoint directory recorded at one
// memory scale does not short-circuit a resume at another; the resume
// runs every cell and matches a fresh run at its own scale.
func TestCellKeyCarriesMemoryScale(t *testing.T) {
	dir := t.TempDir()
	o := RunOpts{
		Duration: 20 * simclock.Second, PagesPerGB: 16, Workers: 2,
		Checkpoint: &CheckpointOpts{Dir: dir, Interval: time.Hour},
	}
	at16, err := RunFig13(o)
	if err != nil {
		t.Fatal(err)
	}
	o.PagesPerGB = 64
	o.Checkpoint.Resume = true
	resumed, err := RunFig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doneFiles(t, dir)); n != 48 {
		t.Fatalf("%d .done records after runs at two scales, want 48", n)
	}
	o.Checkpoint = nil
	fresh, err := RunFig13(o)
	if err != nil {
		t.Fatal(err)
	}
	want := tablesText(fresh.Tables)
	if tablesText(at16.Tables) == want {
		t.Fatal("the two scales render the same tables; the test shows nothing")
	}
	if got := tablesText(resumed.Tables); got != want {
		t.Fatalf("resume at 64 pages/GB:\n%s\nfresh run:\n%s", got, want)
	}
}

// FuzzCellProbe feeds arbitrary bytes to each probe kind as the probe
// state of a snapshot. The state must be rejected (the cell then
// replays) or attach to a small engine, sample through a run, and render
// its figure, all without a panic. The committed seeds are real mid-run
// states, a ragged fig10a state and a fig9 state with five series.
func FuzzCellProbe(f *testing.F) {
	o := RunOpts{Seed: 7, FastGB: 1, SlowGB: 3}.withDefaults()
	f.Fuzz(func(t *testing.T, state []byte) {
		for _, kind := range probeKinds {
			p := kind.cell.probe()
			if decodeState(state, p) != nil {
				continue
			}
			pol, err := NewPolicy(kind.cell.Policy)
			if err != nil {
				t.Fatal(err)
			}
			w := mkDurableWorkload()
			e, err := Build(pol, w, o)
			if err != nil {
				t.Fatal(err)
			}
			p.attach(e, w)
			res := NewResult(kind.cell.Policy, e, w, e.Run(40*simclock.Second))
			res.probe = p
			for _, tb := range kind.render(res) {
				tb.Fprint(io.Discard)
			}
		}
	})
}
