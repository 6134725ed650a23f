package faultinject

import (
	"encoding/json"
	"testing"

	"chrono/internal/simclock"
)

// decisions drains n draws from every class and returns the decision
// stream as a comparable string of bits/values.
func decisions(in *Injector, n int) []any {
	out := make([]any, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out, in.MigrationBusy(), in.AllocFail(), in.PEBSLossFrac(), in.FaultDelay())
	}
	return out
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := New(42, Plan{})
	if in != nil {
		t.Fatalf("zero plan must build a nil injector, got %+v", in)
	}
	// The nil injector is the no-fault object.
	if in.MigrationBusy() || in.AllocFail() || in.PEBSLossFrac() != 0 || in.FaultDelay() != 0 {
		t.Fatal("nil injector injected a fault")
	}
	if in.Total() != 0 || in.Count(MigrationBusy) != 0 {
		t.Fatal("nil injector reported nonzero counts")
	}
}

func TestSameSeedSamePlanIdenticalStream(t *testing.T) {
	plan := Aggressive()
	a := decisions(New(7, plan), 2000)
	b := decisions(New(7, plan), 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := decisions(New(8, plan), 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical decision stream")
	}
}

// TestClassStreamsIndependent verifies the per-class stream forking:
// consuming extra draws from one class must not shift another class's
// decisions — the property that makes partial plans composable.
func TestClassStreamsIndependent(t *testing.T) {
	plan := Aggressive()
	const n = 500

	ref := New(11, plan)
	var refMig []bool
	for i := 0; i < n; i++ {
		refMig = append(refMig, ref.MigrationBusy())
	}

	// Interleave heavy draws from every other class.
	mixed := New(11, plan)
	var mixedMig []bool
	for i := 0; i < n; i++ {
		mixed.AllocFail()
		mixed.PEBSLossFrac()
		mixed.FaultDelay()
		mixedMig = append(mixedMig, mixed.MigrationBusy())
		mixed.FaultDelay()
	}
	for i := range refMig {
		if refMig[i] != mixedMig[i] {
			t.Fatalf("migration decision %d shifted by draws from other classes", i)
		}
	}
}

func TestAllocBurst(t *testing.T) {
	plan := Plan{AllocFailProb: 0.05, AllocFailBurst: 4}
	in := New(3, plan)
	run := 0
	maxRun := 0
	sawBurst := false
	for i := 0; i < 10000; i++ {
		if in.AllocFail() {
			run++
			if run > maxRun {
				maxRun = run
			}
			if run >= 4 {
				sawBurst = true
			}
		} else {
			run = 0
		}
	}
	if !sawBurst {
		t.Fatal("no full burst of 4 consecutive alloc failures observed")
	}
	if got := in.Count(AllocFail); got == 0 {
		t.Fatal("alloc counter not advanced")
	}
}

func TestFaultDelayBounds(t *testing.T) {
	plan := Plan{FaultDelayProb: 1, FaultDelayMaxMS: 20}
	in := New(5, plan)
	max := simclock.Duration(20 * 1e6)
	for i := 0; i < 1000; i++ {
		d := in.FaultDelay()
		if d <= 0 || d > max {
			t.Fatalf("delay %d out of (0, %d]", d, max)
		}
	}
	if in.Count(FaultDelay) != 1000 {
		t.Fatalf("delay count = %d, want 1000", in.Count(FaultDelay))
	}
}

func TestCounts(t *testing.T) {
	in := New(9, Plan{MigrationFailProb: 0.5})
	hits := 0
	for i := 0; i < 1000; i++ {
		if in.MigrationBusy() {
			hits++
		}
	}
	if int64(hits) != in.Count(MigrationBusy) || in.Total() != in.Count(MigrationBusy) {
		t.Fatalf("count mismatch: hits=%d count=%d total=%d", hits, in.Count(MigrationBusy), in.Total())
	}
	if hits < 400 || hits > 600 {
		t.Fatalf("0.5 probability produced %d/1000 hits", hits)
	}
}

func TestParsePlan(t *testing.T) {
	cases := []struct {
		spec string
		want Plan
		err  bool
	}{
		{spec: "", want: Plan{}},
		{spec: "none", want: Plan{}},
		{spec: "aggressive", want: Aggressive()},
		{spec: "mig=0.2", want: Plan{MigrationFailProb: 0.2}},
		{
			spec: "mig=0.2,alloc=0.1:4,pebs=0.25:0.5,delay=0.2:20",
			want: Plan{
				MigrationFailProb: 0.2,
				AllocFailProb:     0.1, AllocFailBurst: 4,
				PEBSDropProb: 0.25, PEBSDropFrac: 0.5,
				FaultDelayProb: 0.2, FaultDelayMaxMS: 20,
			},
		},
		{spec: "alloc=0.1", want: Plan{AllocFailProb: 0.1}},
		{spec: "mig=1.5", err: true},
		{spec: "mig=0.2:3", err: true},
		{spec: "pebs=0.2:1.5", err: true},
		{spec: "bogus=0.2", err: true},
		{spec: "mig", err: true},
		// Non-finite and overflowing values: each once reached a JSON
		// marshal panic or an int64 overflow downstream.
		{spec: "mig=NaN", err: true},
		{spec: "pebs=NaN:0.5", err: true},
		{spec: "pebs=0.5:NaN", err: true},
		{spec: "alloc=0.1:NaN", err: true},
		{spec: "alloc=0.1:Inf", err: true},
		{spec: "alloc=0.1:1e300", err: true},
		{spec: "alloc=0.1:9223372036854775807", err: true},
		{spec: "delay=0.5:NaN", err: true},
		{spec: "delay=0.5:+Inf", err: true},
		{spec: "delay=0.5:1e300", err: true},
		{spec: "delay=0.5:9.3e12", err: true},
		{spec: "delay=1:1e-7", err: true},
		{spec: "delay=1:1e-6", want: Plan{FaultDelayProb: 1, FaultDelayMaxMS: 1e-6}},
		{spec: "alloc=0.1:1e18", want: Plan{AllocFailProb: 0.1, AllocFailBurst: 1e18}},
		{spec: "delay=0.5:9e12", want: Plan{FaultDelayProb: 0.5, FaultDelayMaxMS: 9e12}},
	}
	for _, c := range cases {
		got, err := ParsePlan(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParsePlan(%q): want error, got %+v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	for _, p := range []Plan{{}, Aggressive(), {MigrationFailProb: 0.3}, {AllocFailProb: 0.2, AllocFailBurst: 2}} {
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if back != p.withDefaults() {
			t.Fatalf("round trip of %q: got %+v, want %+v", p.String(), back, p.withDefaults())
		}
	}
}

// FuzzParsePlan: ParsePlan never panics, every plan it accepts marshals
// to JSON (sweep cell keys and checkpoints embed it), and String is a
// fixed point of parsing. The seed corpus in testdata/fuzz holds the
// specs that once crashed a sweep.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if _, err := json.Marshal(p); err != nil {
			t.Fatalf("ParsePlan(%q) = %+v does not marshal: %v", spec, p, err)
		}
		s := p.String()
		q, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not parse: %v", spec, s, err)
		}
		if q.String() != s {
			t.Fatalf("String not a fixed point: %q parses to %q", s, q.String())
		}
		if d := New(1, Plan{FaultDelayProb: 1, FaultDelayMaxMS: p.FaultDelayMaxMS}).FaultDelay(); d < 0 {
			t.Fatalf("ParsePlan(%q): fault delay %d overflows", spec, d)
		}
	})
}
