package experiments

import (
	"math"
	"strings"
	"testing"

	"chrono/internal/faultinject"
	"chrono/internal/workload"
)

// Every spec the validator passes must build without panicking, so each
// rejection rule gets a case here. Specs are defaulted first, as every
// caller does; a zero field therefore means "default", never "invalid".
func TestSimSpecValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec SimSpec
		want string
	}{
		{"unknown policy", SimSpec{Policy: "NoSuchPolicy"}, "unknown policy"},
		{"unknown workload", SimSpec{Workload: "fortran"}, "unknown workload"},
		{"unknown kvstore flavor", SimSpec{Workload: "kvstore", Flavor: "redsi"}, "unknown kvstore flavor"},
		{"unknown kvstore mix", SimSpec{Workload: "kvstore", SetGet: "2:1"}, "unknown kvstore mix"},
		{"unparseable fault plan", SimSpec{Faults: "alloc=banana"}, "fault plan"},
		{"non-finite fault plan value", SimSpec{Faults: "pebs=0.5:NaN"}, "fault plan"},
		{"negative fast tier", SimSpec{FastGB: -1}, "non-positive"},
		{"negative slow tier", SimSpec{SlowGB: -1}, "non-positive"},
		{"negative duration", SimSpec{DurationS: -1}, "non-positive"},
		{"NaN duration", SimSpec{DurationS: math.NaN()}, "non-positive"},
		{"negative pages per GB", SimSpec{PagesPerGB: -1}, "non-positive"},
		{"negative procs", SimSpec{Procs: -1}, "non-positive"},
		{"negative working set", SimSpec{WSGB: -1}, "non-positive"},
		{"negative graph500 total", SimSpec{Workload: "graph500", TotalGB: -1}, "non-positive"},
		{"negative stride", SimSpec{Stride: -1}, "non-positive"},
		{"read percentage above 100", SimSpec{ReadPct: 101}, "read percentage"},
		{"scale above full fidelity", SimSpec{PagesPerGB: 1 << 27}, "full fidelity"},
		{"sub-page fast tier", SimSpec{FastGB: 0.001}, "smaller than one page"},
		{"sub-page slow tier", SimSpec{SlowGB: 0.001}, "smaller than one page"},
		{"sub-page tier at a coarse scale", SimSpec{FastGB: 0.5, PagesPerGB: 1}, "smaller than one page"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.WithDefaults().Validate()
			if err == nil {
				t.Fatalf("spec %+v validated, want rejection", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSimSpecValidateAccepts(t *testing.T) {
	for _, spec := range []SimSpec{
		{},
		{Workload: "kvstore", Flavor: "redis", SetGet: "1:1", Huge: true},
		{Workload: "graph500", TotalGB: 128},
		{Workload: "multitenant", Procs: 10},
		{Policy: "TPP+guard", Faults: "aggressive"},
		{FastGB: 1.0 / 256, SlowGB: 1.0 / 256}, // exactly one page each
	} {
		if err := spec.WithDefaults().Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}

// Build is the only constructor of harness engines, so every engine knob
// of RunOpts must reach the engine's config — the Figure 9 and 10a runs
// once dropped Faults and DebugChecks.
func TestBuildCarriesRunOpts(t *testing.T) {
	plan, err := faultinject.ParsePlan("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	o := RunOpts{
		Seed: 9, PagesPerGB: 512, FastGB: 2, SlowGB: 6,
		Faults: plan, DebugChecks: true,
	}
	pol, err := NewPolicy("TPP")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(pol, &workload.Pmbench{Processes: 2, WorkingSetGB: 1, ReadPct: 70, Stride: 2}, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Seed", cfg.Seed, o.Seed},
		{"PagesPerGB", cfg.PagesPerGB, o.PagesPerGB},
		{"FastGB", cfg.FastGB, o.FastGB},
		{"SlowGB", cfg.SlowGB, o.SlowGB},
		{"Faults", cfg.Faults, o.Faults},
		{"DebugChecks", cfg.DebugChecks, o.DebugChecks},
	} {
		if c.got != c.want {
			t.Errorf("Config().%s = %v, want %v", c.field, c.got, c.want)
		}
	}
	if e.Policy() != pol {
		t.Error("Build did not attach the given policy")
	}
}
