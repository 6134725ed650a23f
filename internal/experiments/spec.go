package experiments

// The flat, by-name description of one standalone simulation. chronosim's
// flags, chronotrace's record and replay, chronoctl -list and chronod's
// submit payload all fill a SimSpec, validate it with the same rules, and
// build through Build.

import (
	"fmt"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/workload"
)

// SimSpec describes one simulation by name. The zero value of every field
// means "default" (see WithDefaults), so a minimal spec is just
// {"workload":"pmbench"}. The JSON form is chronod's submit payload and
// is persisted in its run records.
type SimSpec struct {
	// Policy is the initial tiering policy (default Chrono). Live
	// reconfiguration may replace it later.
	Policy string `json:"policy,omitempty"`
	// Workload selects pmbench|graph500|kvstore|multitenant.
	Workload string `json:"workload,omitempty"`

	// Workload shape, mirroring chronosim's flags.
	Procs   int     `json:"procs,omitempty"`    // pmbench/multitenant (default 50)
	WSGB    float64 `json:"ws_gb,omitempty"`    // pmbench per-process working set (default 5)
	ReadPct float64 `json:"read_pct,omitempty"` // default 70
	Stride  int     `json:"stride,omitempty"`   // pmbench (default 2)
	TotalGB float64 `json:"total_gb,omitempty"` // graph500 (default 256)
	Flavor  string  `json:"flavor,omitempty"`   // kvstore: memcached|redis
	SetGet  string  `json:"set_get,omitempty"`  // kvstore mix: 1:10|1:1
	Huge    bool    `json:"huge,omitempty"`     // map huge pages

	// Simulation knobs.
	Seed       uint64  `json:"seed,omitempty"`         // default 42
	DurationS  float64 `json:"duration_s,omitempty"`   // virtual seconds (default 600)
	FastGB     float64 `json:"fast_gb,omitempty"`      // default 64
	SlowGB     float64 `json:"slow_gb,omitempty"`      // default 192
	PagesPerGB int64   `json:"pages_per_gb,omitempty"` // default 256
	// Faults is a fault-injection plan spec (internal/faultinject syntax,
	// e.g. "aggressive" or "mig=0.2,alloc=0.001:4"). Empty disables it.
	Faults string `json:"faults,omitempty"`
}

// WithDefaults fills every zero field with its default.
func (s SimSpec) WithDefaults() SimSpec {
	if s.Policy == "" {
		s.Policy = "Chrono"
	}
	if s.Workload == "" {
		s.Workload = "pmbench"
	}
	if s.Procs == 0 {
		s.Procs = 50
	}
	if s.WSGB == 0 {
		s.WSGB = 5
	}
	if s.ReadPct == 0 {
		s.ReadPct = 70
	}
	if s.Stride == 0 {
		s.Stride = 2
	}
	if s.TotalGB == 0 {
		s.TotalGB = 256
	}
	if s.Flavor == "" {
		s.Flavor = "memcached"
	}
	if s.SetGet == "" {
		s.SetGet = "1:10"
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.DurationS == 0 {
		s.DurationS = 600
	}
	if s.FastGB == 0 {
		s.FastGB = 64
	}
	if s.SlowGB == 0 {
		s.SlowGB = 192
	}
	if s.PagesPerGB == 0 {
		s.PagesPerGB = 256
	}
	return s
}

// Validate rejects a spec that cannot be built: an unknown policy,
// workload, kvstore flavor or mix, an unparseable fault plan, a negative
// (or NaN) size, count or duration, a read percentage outside 0-100, a
// scale finer than one simulated page per real 4 KB page, or a tier
// smaller than one page. It must be called on a defaulted spec; a spec
// that passes builds without panicking, though a large enough working
// set can still fail its build for lack of simulated memory.
func (s SimSpec) Validate() error {
	if _, err := NewPolicy(s.Policy); err != nil {
		return err
	}
	if _, err := s.NewWorkload(); err != nil {
		return err
	}
	if _, err := s.Opts(); err != nil {
		return err
	}
	if !(s.DurationS >= 0) || !(s.FastGB > 0) || !(s.SlowGB > 0) || s.PagesPerGB < 0 ||
		s.Procs < 0 || !(s.WSGB >= 0) || !(s.TotalGB >= 0) || s.Stride < 0 {
		return fmt.Errorf("experiments: non-positive size or duration in spec")
	}
	if !(s.ReadPct >= 0 && s.ReadPct <= 100) {
		return fmt.Errorf("experiments: read percentage %g outside 0-100", s.ReadPct)
	}
	if s.PagesPerGB > 262144 {
		return fmt.Errorf("experiments: %d pages per GB is finer than full fidelity (262144, one page per 4 KB)", s.PagesPerGB)
	}
	if units.GB(s.FastGB).Pages(s.PagesPerGB) < 1 || units.GB(s.SlowGB).Pages(s.PagesPerGB) < 1 {
		return fmt.Errorf("experiments: tier smaller than one page (fast %g GB, slow %g GB at %d pages/GB)",
			s.FastGB, s.SlowGB, s.PagesPerGB)
	}
	return nil
}

// Opts returns the spec's engine knobs as RunOpts. Workers, the one
// host-side knob (it never changes results), is left to the caller.
func (s SimSpec) Opts() (RunOpts, error) {
	plan, err := faultinject.ParsePlan(s.Faults)
	if err != nil {
		return RunOpts{}, fmt.Errorf("experiments: fault plan: %w", err)
	}
	return RunOpts{
		Seed:       s.Seed,
		Duration:   simclock.FromSeconds(s.DurationS),
		PagesPerGB: s.PagesPerGB,
		FastGB:     units.GB(s.FastGB),
		SlowGB:     units.GB(s.SlowGB),
		Faults:     plan,
	}, nil
}

// NewWorkload constructs a fresh workload from the spec — fresh per
// build, because Build mutates workload state.
func (s SimSpec) NewWorkload() (workload.Workload, error) {
	mode := engine.BasePages
	if s.Huge {
		mode = engine.HugePages
	}
	switch s.Workload {
	case "pmbench":
		return &workload.Pmbench{
			Processes: s.Procs, WorkingSetGB: units.GB(s.WSGB), ReadPct: s.ReadPct,
			Stride: s.Stride, Mode: mode,
		}, nil
	case "graph500":
		return &workload.Graph500{TotalGB: units.GB(s.TotalGB), Mode: mode}, nil
	case "kvstore":
		f := workload.Memcached
		switch s.Flavor {
		case "memcached":
		case "redis":
			f = workload.Redis
		default:
			return nil, fmt.Errorf("experiments: unknown kvstore flavor %q (memcached|redis)", s.Flavor)
		}
		set, get := 1.0, 10.0
		switch s.SetGet {
		case "1:10":
		case "1:1":
			get = 1
		default:
			return nil, fmt.Errorf("experiments: unknown kvstore mix %q (1:10|1:1)", s.SetGet)
		}
		return &workload.KVStore{Flavor: f, StoreGB: 160, SetRatio: set, GetRatio: get, Mode: mode}, nil
	case "multitenant":
		return &workload.MultiTenant{Tenants: s.Procs}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q (pmbench|graph500|kvstore|multitenant)", s.Workload)
	}
}

// Build materializes the spec into a ready-to-run engine with polName
// attached. polName is separate from s.Policy because chronod's live
// reconfiguration and rollback rebuild the same spec under another
// policy.
func (s SimSpec) Build(polName string) (*engine.Engine, workload.Workload, error) {
	o, err := s.Opts()
	if err != nil {
		return nil, nil, err
	}
	w, err := s.NewWorkload()
	if err != nil {
		return nil, nil, err
	}
	pol, err := NewPolicy(polName)
	if err != nil {
		return nil, nil, err
	}
	e, err := Build(pol, w, o)
	if err != nil {
		return nil, nil, err
	}
	return e, w, nil
}

// SummaryTable renders a finished run's metrics: chronosim's output and
// chronod's final table. durS is the run's virtual length for the title.
func SummaryTable(res *Result, durS float64) *report.Table {
	t := report.NewTable(fmt.Sprintf("%s on %s (%.0fs virtual)", res.Policy, res.Workload.Name(), durS),
		"Metric", "Value")
	MetricRows(t, res.Metrics)
	cls, f1, ppr := Score(res)
	t.AddRow("F1-score", f1)
	t.AddRow("Precision", cls.Precision())
	t.AddRow("Recall", cls.Recall())
	t.AddRow("PPR", ppr)
	if res.Chrono != nil {
		t.AddRow("CIT threshold (ms)", res.Chrono.ThresholdMS())
		t.AddRow("Rate limit (MB/s)", res.Chrono.RateLimitMBps())
		t.AddRow("Thrash events", res.Chrono.ThrashTotal)
		t.AddRow("DCSC samples", res.Chrono.DCSCSamples)
	}
	return t
}

// MetricRows adds the counter and rate rows shared by SummaryTable and
// chronod's live dump.
func MetricRows(t *report.Table, m *engine.Metrics) {
	t.AddRow("Throughput (Mop/s)", m.Throughput())
	t.AddRow("FMAR (%)", m.FMAR()*100)
	t.AddRow("Avg latency (ns)", m.Lat.Mean())
	t.AddRow("P50 latency (ns)", m.Lat.Percentile(0.5))
	t.AddRow("P99 latency (ns)", m.Lat.Percentile(0.99))
	t.AddRow("Kernel time (%)", m.KernelTimeFrac()*100)
	t.AddRow("Context switches (/s)", m.ContextSwitchRate())
	t.AddRow("Hint faults", m.Faults)
	t.AddRow("Promotions (pages)", m.Promotions)
	t.AddRow("Demotions (pages)", m.Demotions)
	t.AddRow("Migrated (GB)", m.MigratedBytes/1e9)
}
