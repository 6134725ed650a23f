package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{39, 0.5, true},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.75); got != 3.25 {
		t.Errorf("p75 = %v, want 3.25", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) || zeroNaN(median(nil)) != 0 {
		t.Error("an empty sample must be NaN, reported as 0")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// Nested and overlapping children cover [10,50]; the last is
		// clipped to [80,100]: 60 ns covered in all.
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "step", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "step", Start: 35, End: 50},
		{ID: 5, Parent: 1, Name: "save", Start: 80, End: 120},
		// A grandchild is covered by its parent and does not count twice.
		{ID: 6, Parent: 3, Name: "load", Start: 25, End: 28},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"run": 40, "step": 30 + (10 - 3) + 15, "save": 40, "load": 3} {
		if got := self[name] * 1e9; math.Abs(got-want) > 1e-6 {
			t.Errorf("self[%s] = %v ns, want %v", name, got, want)
		}
	}
}

func TestTracerAdoptRenumbers(t *testing.T) {
	tr := newTracer()
	root := tr.begin("sweep", "adv", 0)
	c := tr.fork()
	cell := c.begin("cell", "adv/x/TPP", 0)
	c.end(c.begin("run", "adv/x/TPP", cell))
	c.end(cell)
	tr.end(root)
	tr.adopt(c, root)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if got := tr.spans[1]; got.ID != 2 || got.Parent != root {
		t.Errorf("adopted root %+v, want ID 2 under %d", got, root)
	}
	if got := tr.spans[2]; got.ID != 3 || got.Parent != 2 {
		t.Errorf("adopted child %+v, want ID 3 under 2", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", "", 0); id != 0 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

// Caps on the metric lists, from the benchmark contract.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkSpecs validates a metric list against the naming rules and a cap.
func checkSpecs(specs []metricSpec, limit int) error {
	if len(specs) > limit {
		return fmt.Errorf("%d metrics, cap is %d", len(specs), limit)
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if !validName.MatchString(s.Name) || len(s.Name) > 64 {
			return fmt.Errorf("invalid metric name %q", s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("duplicate metric name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

func TestMetricNames(t *testing.T) {
	if err := checkSpecs(endToEnd, maxEndToEnd); err != nil {
		t.Errorf("end-to-end metrics: %v", err)
	}
	if err := checkSpecs(perLayer, maxPerLayer); err != nil {
		t.Errorf("per-layer metrics: %v", err)
	}
	for _, bad := range []string{"a b", "run_s.Memtis+guard", "", "x/y"} {
		if err := checkSpecs([]metricSpec{{bad, "s"}}, 1); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := checkSpecs([]metricSpec{{"a", "s"}, {"a", "s"}}, 2); err == nil {
		t.Error("duplicate name accepted")
	}
	over := make([]metricSpec, maxEndToEnd+1)
	for i := range over {
		over[i] = metricSpec{strings.Repeat("m", i+1), "s"}
	}
	if err := checkSpecs(over, maxEndToEnd); err == nil {
		t.Errorf("%d end-to-end metrics accepted", len(over))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), printed %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestSanitizePolicyNames(t *testing.T) {
	for in, want := range map[string]string{
		"Memtis+guard": "Memtis-guard",
		"Linux-NB":     "Linux-NB",
		"Chrono":       "Chrono",
		"a b/c":        "a-b-c",
	} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
	if got := runMetric("FlexMem+guard"); got != "run_s.FlexMem-guard" {
		t.Errorf("runMetric = %q", got)
	}
}

// TestDigestRejectsPerturbedMetric runs a small simulation, digests it,
// and checks that moving any one statistic changes the digest and fails
// the reference check.
func TestDigestRejectsPerturbedMetric(t *testing.T) {
	e := engine.New(engine.Config{Seed: 7, PagesPerGB: 16, FastGB: 2, SlowGB: 8})
	w := &workload.Pmbench{Processes: 2, WorkingSetGB: 2, ReadPct: 70, Stride: 2}
	if err := w.Build(e); err != nil {
		t.Fatal(err)
	}
	pol, err := experiments.NewPolicy("Chrono")
	if err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(pol)
	m := e.Run(20 * simclock.Second)
	sum := func() string {
		d := newDigest()
		d.addRun("Chrono", e, w, m)
		return d.sum()
	}
	want := sum()
	if again := sum(); again != want {
		t.Fatalf("digest is not stable: %s then %s", want, again)
	}
	defer func(old string) { references["pmbench-fault"] = old }(references["pmbench-fault"])
	references["pmbench-fault"] = want
	if err := checkReference("pmbench-fault", defaultSeed, want); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	m.Promotions++
	perturbed := sum()
	m.Promotions--
	if perturbed == want {
		t.Fatal("digest ignores Promotions")
	}
	if err := checkReference("pmbench-fault", defaultSeed, perturbed); err == nil {
		t.Error("perturbed digest accepted")
	}
	if err := checkReference("pmbench-fault", defaultSeed+1, perturbed); err != nil {
		t.Errorf("seeds without a reference must not be checked: %v", err)
	}
	m.Lat.Add(123, 1)
	if sum() == want {
		t.Error("digest ignores the latency histogram")
	}
}

// TestRunFailsOnPerturbedReference runs the whole benchmark for the
// default seed against a reference digest with one digit changed: the run
// must exit 1 and report correct false.
func TestRunFailsOnPerturbedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one pmbench-fault round")
	}
	const name = "pmbench-fault"
	old := references[name]
	defer func() { references[name] = old }()
	flip := byte('0')
	if old[0] == '0' {
		flip = '1'
	}
	references[name] = string(flip) + old[1:]

	var out, errOut strings.Builder
	code := run([]string{"--workload", name, "--seed", fmt.Sprint(defaultSeed), "--seconds", "1", "--work-dir", t.TempDir()}, &out, &errOut)
	if code != 1 {
		t.Errorf("run exited %d, want 1; stderr %q", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
	if !strings.Contains(out.String(), "reference "+references[name]) {
		t.Errorf("the failure does not name the perturbed reference:\n%s", out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut strings.Builder
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "pmbench-fault", "--trace", "2"},
		{"--workload", "pmbench-fault", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected arguments printed a result: %q", out.String())
	}
}

func TestRepeatRunsAtLeastOnce(t *testing.T) {
	n := 0
	if err := repeat(0, func() error { n++; return nil }); err != nil || n != 1 {
		t.Errorf("repeat with no budget ran %d rounds (err %v), want 1", n, err)
	}
}

// TestChronodSessionPausesAndDrains drives a short closed-loop round
// through a real daemon on a unix socket: every job must finish with its
// uninterrupted reference table, at least one must have been paused and
// resumed (a job may finish before its pause request lands, as the
// benchmark allows), and the session must drain the daemon and remove
// its state directory.
func TestChronodSessionPausesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four reference simulations and two paused jobs")
	}
	c := runConfig{seed: 3, workDir: t.TempDir()}
	o := &outcome{}
	paused := 0
	setups := chronodSession(c, o, func(d *chronod, refs []string) {
		recs, wall := d.round(c.seed, chronodClients, nil)
		paused = checkJobs(o, recs, refs)
		if len(recs) != chronodClients || wall <= 0 {
			t.Errorf("round returned %d jobs in %v s", len(recs), wall)
		}
	})
	if o.failed != 0 {
		t.Fatalf("session failed: %v", o.problems)
	}
	if paused == 0 {
		t.Errorf("none of %d jobs was paused and resumed", chronodClients)
	}
	if len(setups) != chronodSetups || o.digest == "" {
		t.Errorf("%d set-ups, digest %q", len(setups), o.digest)
	}
	left, err := os.ReadDir(c.workDir)
	if err != nil || len(left) != 0 {
		t.Errorf("work dir not cleaned up: %v %v", left, err)
	}
}
