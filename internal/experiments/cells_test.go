package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
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
// byte-identical to the first run's. The records of fig1, fig2b, ext and
// seeds read the live engine, so this is also their JSON round trip: a
// record that fails to encode (NaN, Inf) leaves its cell without a .done
// file, and one that loses a field renders differently on resume.
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
