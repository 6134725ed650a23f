package experiments

import (
	"fmt"

	"chrono/internal/report"
	"chrono/internal/workload"
)

// Adversarial robustness sweep: the anti-thrashing scenario suite
// (internal/workload/adversarial.go) crossed with the baseline policies,
// each with and without the thrash guard, plus the Nomad transactional
// baseline. Run with -faults to additionally cross the grid with an
// injection plan — every cell goes through ResilientRun, so a policy that
// panics under pressure lands in the failure manifest instead of taking
// the sweep down.

// AdversarialPolicies is the sweep's policy axis: each migration-heavy
// baseline bare and guard-wrapped, plus Nomad (whose transactional
// mechanism is its own thrash mitigation).
var AdversarialPolicies = []string{
	"TPP", "TPP+guard",
	"Memtis", "Memtis+guard",
	"FlexMem", "FlexMem+guard",
	"Chrono", "Chrono+guard",
	"Nomad",
}

// AdversarialScenarios is the scenario axis, by NewAdversarial name.
var AdversarialScenarios = []string{"oscillation", "rotation", "pressure"}

// NewAdversarial constructs a fresh adversarial scenario by name.
func NewAdversarial(name string) (workload.Workload, error) {
	switch name {
	case "oscillation":
		return &workload.Oscillation{}, nil
	case "rotation":
		return &workload.Rotation{}, nil
	case "pressure":
		return &workload.PressureSpike{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown adversarial scenario %q", name)
	}
}

// AdversarialSweep is the finished grid: one table per scenario plus the
// failure manifest for cells that crashed or were interrupted.
type AdversarialSweep = Sweep

// RunAdversarial sweeps AdversarialPolicies × AdversarialScenarios,
// scenario-major. RunOpts.Faults applies to every cell, so `reproduce
// -run adv -faults aggressive` is the policies × scenarios × fault-plan
// cross the robustness evaluation calls for.
func RunAdversarial(o RunOpts) (*AdversarialSweep, error) {
	pols, scens := AdversarialPolicies, AdversarialScenarios
	var cells []Cell
	for _, scen := range scens {
		for _, pol := range pols {
			cells = append(cells, Cell{
				Experiment: "adv/" + scen,
				Policy:     pol,
				Workload: func() workload.Workload {
					w, err := NewAdversarial(scen)
					if err != nil {
						panic(err) // names come from AdversarialScenarios
					}
					return w
				},
			})
		}
	}
	rows, out, err := runCells(cells, o, false, func(res *Result) []any {
		m := res.Metrics
		var rePromo, shadowHit float64
		if m.Promotions > 0 {
			rePromo = 100 * float64(m.RePromotions) / float64(m.Promotions)
		}
		if tries := m.ShadowDemotions + m.ShadowStale; tries > 0 {
			shadowHit = 100 * float64(m.ShadowDemotions) / float64(tries)
		}
		return []any{m.Throughput(), m.FMAR() * 100, m.MigratedBytes / (1 << 30),
			rePromo, m.ThrashBytes / (1 << 30), m.NomadAborts, shadowHit}
	})
	if err != nil {
		return nil, err
	}
	s := &AdversarialSweep{Outcome: out}
	for si, scen := range scens {
		title := fmt.Sprintf("Adversarial: %s scenario", scen)
		if o.Faults.Enabled() {
			title += fmt.Sprintf(" under faults %q", o.Faults.String())
		}
		t := report.NewTable(title,
			"Policy", "Thr (Mop/s)", "FMAR (%)", "Mig (GB)",
			"RePromo (%)", "Thrash (GB)", "Aborts", "ShadowHit (%)")
		for pi, pol := range pols {
			r := rows[si*len(pols)+pi]
			if r == nil {
				t.AddRow(pol, "FAILED", "FAILED", "FAILED",
					"FAILED", "FAILED", "FAILED", "FAILED")
				continue
			}
			t.AddRow(append([]any{pol}, *r...)...)
		}
		t.Note = "RePromo = promotions of previously demoted pages; Thrash = bytes moved on promote→demote round trips " +
			"within one thrash window (60 s); ShadowHit = clean zero-copy share of Nomad shadow demotions; +guard = same policy behind the anti-thrashing controller"
		s.Tables = append(s.Tables, t)
	}
	return s, nil
}
