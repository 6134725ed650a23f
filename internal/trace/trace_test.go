package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"chrono/internal/core"
	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/vm"
	"chrono/internal/workload"
)

// buildAndRecord runs a small workload with a recorder attached.
func buildAndRecord(t *testing.T, dur simclock.Duration) (*bytes.Buffer, *engine.Engine) {
	t.Helper()
	e := engine.New(engine.Config{Seed: 9, FastGB: 8, SlowGB: 24})
	w := &workload.Pmbench{Processes: 3, WorkingSetGB: 9, ReadPct: 70, Stride: 2}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	if err := rec.Attach(e, w.Name()); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(core.New(core.Options{}))
	e.Run(dur)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, e
}

func TestRecordAndRead(t *testing.T) {
	buf, _ := buildAndRecord(t, 150*simclock.Second)
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Version != 1 || tr.Header.Workload == "" {
		t.Fatalf("header %+v", tr.Header)
	}
	if tr.Header.FastGB != 8 || tr.Header.SlowGB != 24 {
		t.Fatalf("machine shape %+v", tr.Header)
	}
	if len(tr.Processes) != 3 {
		t.Fatalf("%d processes", len(tr.Processes))
	}
	// One initial pattern per process; the pmbench pattern is static, so
	// the checksum suppression should prevent re-captures.
	if len(tr.Patterns) != 3 {
		t.Fatalf("%d patterns, want 3 (changed-only capture)", len(tr.Patterns))
	}
	// Snapshots every 10s for 150s.
	if len(tr.Snapshots) < 14 {
		t.Fatalf("%d snapshots", len(tr.Snapshots))
	}
	last := tr.Snapshots[len(tr.Snapshots)-1]
	if last.FMAR <= 0 || len(last.DRAMPct) != 3 {
		t.Fatalf("final snapshot %+v", last)
	}
}

func TestPatternRLERoundTrip(t *testing.T) {
	buf, e := buildAndRecord(t, 20*simclock.Second)
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Reapply the recorded pattern onto a fresh process and compare
	// weights pointwise.
	orig := e.Processes()[0]
	var pat *Pattern
	for i := range tr.Patterns {
		if tr.Patterns[i].PID == orig.PID {
			pat = &tr.Patterns[i]
			break
		}
	}
	if pat == nil {
		t.Fatal("no pattern for pid")
	}
	fresh := vm.NewProcess(99, "copy", orig.VMAs()[0].Len)
	applyPattern(fresh, *pat)
	for i := uint64(0); i < orig.VMAs()[0].Len; i++ {
		ov := orig.Weight(orig.VMAs()[0].Start + i)
		fv := fresh.Weight(fresh.VMAs()[0].Start + i)
		if math.Abs(ov-fv) > 1e-12 {
			t.Fatalf("weight mismatch at +%d: %v vs %v", i, ov, fv)
		}
	}
}

func TestReplayMatchesOriginalBehaviour(t *testing.T) {
	buf, orig := buildAndRecord(t, 120*simclock.Second)
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Replay under the same policy and seed: headline metrics must land
	// close to the original run (identical patterns, same engine).
	e := engine.New(engine.Config{
		Seed:   9,
		FastGB: tr.Header.FastGB, SlowGB: tr.Header.SlowGB,
		PagesPerGB: tr.Header.PagesPerGB,
	})
	rp := &Replay{T: tr}
	if err := rp.Build(e); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(core.New(core.Options{}))
	m := e.Run(120 * simclock.Second)

	of := orig.M.FMAR()
	rf := m.FMAR()
	if math.Abs(of-rf) > 0.1 {
		t.Fatalf("replay FMAR %v vs original %v", rf, of)
	}
	if m.Throughput() <= 0 {
		t.Fatal("replay produced no throughput")
	}
}

func TestReplayPhaseChanges(t *testing.T) {
	// Record a graph500 run (which re-jitters weights every round) and
	// verify the replay schedules later pattern records.
	e := engine.New(engine.Config{Seed: 3, FastGB: 8, SlowGB: 24})
	w := &workload.Graph500{TotalGB: 24, Processes: 2, RoundSeconds: 30}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	if err := rec.Attach(e, w.Name()); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(core.New(core.Options{}))
	e.Run(130 * simclock.Second)
	rec.Flush()

	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	later := 0
	for _, p := range tr.Patterns {
		if p.AtSec > 0 {
			later++
		}
	}
	if later == 0 {
		t.Fatal("no phase-change patterns recorded for a drifting workload")
	}

	// Replay and confirm weights actually change at runtime.
	e2 := engine.New(engine.Config{Seed: 3, FastGB: 8, SlowGB: 24})
	rp := &Replay{T: tr}
	if err := rp.Build(e2); err != nil {
		t.Fatal(err)
	}
	p0 := e2.Processes()[0]
	probe := p0.VMAs()[0].Start + p0.VMAs()[0].Len - 5
	before := p0.Weight(probe)
	e2.AttachPolicy(core.New(core.Options{}))
	e2.Run(130 * simclock.Second)
	if p0.Weight(probe) == before {
		t.Fatal("replayed phase change did not alter weights")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"kind":"mystery"}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Read(strings.NewReader(`{"kind":"snapshot","at_sec":1}` + "\n")); err == nil {
		t.Fatal("headerless trace accepted")
	}
}

// TestReadRejectsRaggedPattern: a pattern whose weight or read-fraction
// column is shorter than its counts is rejected by Read, naming the line,
// instead of panicking later in Replay.Build.
func TestReadRejectsRaggedPattern(t *testing.T) {
	header := `{"kind":"header","version":1}` + "\n"
	for _, rec := range []string{
		`{"kind":"pattern","pid":1,"counts":[8,8],"w":[1],"rf":[0.5,0.5]}`,
		`{"kind":"pattern","pid":1,"counts":[8,8],"w":[1,1],"rf":[0.5]}`,
		`{"kind":"pattern","pid":1,"counts":[8],"w":[1,1],"rf":[0.5,0.5]}`,
	} {
		_, err := Read(strings.NewReader(header + rec + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("%s: got %v, want a line-2 error", rec, err)
		}
	}
}

func TestReplayHotPage(t *testing.T) {
	buf, _ := buildAndRecord(t, 20*simclock.Second)
	tr, _ := Read(bytes.NewReader(buf.Bytes()))
	e := engine.New(engine.Config{Seed: 1, FastGB: 8, SlowGB: 24})
	rp := &Replay{T: tr}
	if err := rp.Build(e); err != nil {
		t.Fatal(err)
	}
	p := e.Processes()[0]
	start, n := p.VMAs()[0].Start, p.VMAs()[0].Len
	// The Gaussian centre must classify hot, the edges not.
	if !rp.HotPage(p, start+n/2) {
		t.Fatal("centre not hot in replay ground truth")
	}
	if rp.HotPage(p, start) && p.Weight(start) == 0 {
		t.Fatal("zero-weight page reported hot")
	}
}
