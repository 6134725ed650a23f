package analysis_test

// Driver-level integration tests: the full analyzer suite runs over the
// fixture module in testdata/fixture and the results are checked end to
// end — finding set, suppression counts, fingerprints, and the SARIF
// document (rule IDs, positions, fingerprints). The flowpkg fixture
// seeds the interprocedural analyzer (hotalloc); detclock also fires
// there, on a raw time.Now.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"chrono/internal/analysis"
	"chrono/internal/analysis/registry"
)

// driveFixture runs the complete suite (scoping disabled — the fixture
// module is not the chrono module) over testdata/fixture.
func driveFixture(t *testing.T, opts analysis.Options) *analysis.Result {
	t.Helper()
	opts.All = true
	l, err := analysis.NewLoader("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Drive(l, registry.All(), []string{"./..."}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fixtureWant is the exact finding set seeded in testdata/fixture, in
// driver order (file, line, column, rule).
var fixtureWant = []string{
	"dirty/dirty.go:13:lockorder",
	"dirty/dirty.go:20:goroscope",
	"dirty/dirty.go:37:directive",
	"dirty/dirty.go:44:directive",
	"dirty/dirty.go:51:goroscope",
	"flowpkg/flowpkg.go:16:hotalloc",
	"flowpkg/flowpkg.go:21:detclock",
	"state/state.go:13:statesync",
	"state/state.go:19:statesync",
	"state/state.go:26:snapalias",
}

func keys(findings []analysis.Finding) []string {
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)
	}
	return out
}

func TestDriveFixture(t *testing.T) {
	res := driveFixture(t, analysis.Options{})
	got := keys(res.Findings)
	if len(got) != len(fixtureWant) {
		t.Fatalf("findings = %v, want %v", got, fixtureWant)
	}
	for i := range got {
		if got[i] != fixtureWant[i] {
			t.Errorf("finding[%d] = %s, want %s", i, got[i], fixtureWant[i])
		}
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the allowed goroscope leak)", res.Suppressed)
	}
	// The fixture contains two findings with identical rule, file, and
	// message (leak / leakAgain); every fingerprint must still
	// be unique or code scanning would fold the two alerts into one.
	fps := make(map[string]string, len(res.Findings))
	for _, f := range res.Findings {
		if prev, dup := fps[f.Fingerprint]; dup {
			t.Errorf("fingerprint collision between %s and %s", prev, f)
		}
		fps[f.Fingerprint] = f.String()
	}
	seen := make(map[string]bool)
	for _, f := range res.Findings {
		if f.Column <= 0 {
			t.Errorf("%s has no column", f)
		}
		if len(f.Fingerprint) != 32 {
			t.Errorf("%s fingerprint %q is not 32 hex chars", f, f.Fingerprint)
		}
		// First occurrence of a (rule, file, message) triple recomputes
		// with the exported Fingerprint; later duplicates must diverge.
		key := f.Rule + "\x00" + f.File + "\x00" + f.Message
		recomputes := f.Fingerprint == analysis.Fingerprint(f.Rule, f.File, f.Message)
		if !seen[key] && !recomputes {
			t.Errorf("%s fingerprint does not recompute", f)
		}
		if seen[key] && recomputes {
			t.Errorf("%s duplicate finding reused the first occurrence's fingerprint", f)
		}
		seen[key] = true
	}
	// The statesync pair must reproduce both fence directions for the
	// deleted hist mapping: the unmapped live field and the dead state twin.
	var statesyncMsgs []string
	for _, f := range res.Findings {
		if f.Rule == "statesync" {
			statesyncMsgs = append(statesyncMsgs, f.Message)
		}
	}
	if len(statesyncMsgs) != 2 || statesyncMsgs[0] == statesyncMsgs[1] {
		t.Errorf("expected two distinct statesync directions, got %q", statesyncMsgs)
	}
}

func TestSARIFReport(t *testing.T) {
	res := driveFixture(t, analysis.Options{})
	analyzers := registry.All()
	data, err := analysis.SARIFReport(analyzers, res)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name    string `json:"name"`
					Version string `json:"version"`
					Rules   []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						DefaultConfiguration struct {
							Level string `json:"level"`
						} `json:"defaultConfiguration"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				PartialFingerprints map[string]string `json:"partialFingerprints"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if filepath.Base(log.Schema) != "sarif-schema-2.1.0.json" {
		t.Errorf("$schema = %q, want the 2.1.0 schema", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "chronolint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// One rule per analyzer plus the directive rule, ids in suite order.
	if len(run.Tool.Driver.Rules) != len(analyzers)+1 {
		t.Fatalf("rules = %d, want %d", len(run.Tool.Driver.Rules), len(analyzers)+1)
	}
	for i, a := range analyzers {
		r := run.Tool.Driver.Rules[i]
		if r.ID != a.Name || r.ShortDescription.Text == "" || r.DefaultConfiguration.Level != "error" {
			t.Errorf("rule[%d] = %+v, want id %q with description and level error", i, r, a.Name)
		}
	}
	if run.Tool.Driver.Rules[len(analyzers)].ID != analysis.DirectiveRule {
		t.Errorf("last rule = %q, want %q", run.Tool.Driver.Rules[len(analyzers)].ID, analysis.DirectiveRule)
	}
	if len(run.Results) != len(res.Findings) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(res.Findings))
	}
	for i, r := range run.Results {
		f := res.Findings[i]
		if r.RuleID != f.Rule || r.Level != "error" || r.Message.Text != f.Message {
			t.Errorf("result[%d] = %+v, want rule %s level error", i, r, f.Rule)
		}
		if run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result[%d] ruleIndex %d does not resolve to %s", i, r.RuleIndex, r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result[%d] has %d locations", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != f.File || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("result[%d] uri = %+v, want %s under %%SRCROOT%%", i, loc.ArtifactLocation, f.File)
		}
		if loc.Region.StartLine != f.Line || loc.Region.StartColumn != f.Column {
			t.Errorf("result[%d] region = %+v, want %d:%d", i, loc.Region, f.Line, f.Column)
		}
		if r.PartialFingerprints[analysis.SARIFFingerprintKey] != f.Fingerprint {
			t.Errorf("result[%d] fingerprint = %v, want %s", i, r.PartialFingerprints, f.Fingerprint)
		}
	}
}
