package analysis_test

// Driver-level integration tests: the full 15-analyzer suite runs over
// the fixture module in testdata/fixture and the results are checked end
// to end — finding set, suppression counts, JSON and SARIF round-trips
// (rule IDs, positions, fingerprints), baseline semantics, baseline-match
// modes, and severity overrides. The flowpkg fixture seeds the v4
// interprocedural analyzers (hotalloc, detflow); detclock also
// fires there, on the raw time.Now source detflow tracks into the sink.

import (
	"encoding/json"
	"fmt"
	"os"
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
	"dirty/dirty.go:18:lockorder",
	"dirty/dirty.go:29:atomicmix",
	"dirty/dirty.go:41:goroscope",
	"dirty/dirty.go:49:directive",
	"dirty/dirty.go:56:directive",
	"dirty/dirty.go:63:atomicmix",
	"flowpkg/flowpkg.go:19:hotalloc",
	"flowpkg/flowpkg.go:24:detclock",
	"flowpkg/flowpkg.go:29:detflow",
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
		t.Errorf("Suppressed = %d, want 1 (the allowed atomicmix read)", res.Suppressed)
	}
	if res.Baselined != 0 {
		t.Errorf("Baselined = %d, want 0", res.Baselined)
	}
	if res.Errors() != len(fixtureWant) || res.Warnings() != 0 {
		t.Errorf("Errors/Warnings = %d/%d, want %d/0", res.Errors(), res.Warnings(), len(fixtureWant))
	}
	// The fixture contains two findings with identical rule, file, and
	// message (plainRead / plainReadAgain); every fingerprint must still
	// be unique or baselining one would hide the other.
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

func TestJSONReportRoundTrip(t *testing.T) {
	res := driveFixture(t, analysis.Options{})
	data, err := analysis.JSONReport(res)
	if err != nil {
		t.Fatal(err)
	}
	var rt struct {
		Version    int                `json:"version"`
		Findings   []analysis.Finding `json:"findings"`
		Suppressed int                `json:"suppressed"`
		Baselined  int                `json:"baselined"`
		Errors     int                `json:"errors"`
		Warnings   int                `json:"warnings"`
	}
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if rt.Version != 1 {
		t.Errorf("version = %d, want 1", rt.Version)
	}
	if rt.Suppressed != res.Suppressed || rt.Errors != res.Errors() || rt.Warnings != res.Warnings() {
		t.Errorf("counts drifted through JSON: %+v", rt)
	}
	if len(rt.Findings) != len(res.Findings) {
		t.Fatalf("findings count = %d, want %d", len(rt.Findings), len(res.Findings))
	}
	for i, f := range rt.Findings {
		if f != res.Findings[i] {
			t.Errorf("finding[%d] drifted through JSON: %+v != %+v", i, f, res.Findings[i])
		}
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
		if r.ID != a.Name || r.ShortDescription.Text == "" || r.DefaultConfiguration.Level == "" {
			t.Errorf("rule[%d] = %+v, want id %q with description and level", i, r, a.Name)
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
		if r.RuleID != f.Rule || r.Level != f.Severity || r.Message.Text != f.Message {
			t.Errorf("result[%d] = %+v, want rule %s level %s", i, r, f.Rule, f.Severity)
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

func TestBaselineSuppressesOldNotNew(t *testing.T) {
	res := driveFixture(t, analysis.Options{})
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := analysis.WriteBaseline(path, res.Findings); err != nil {
		t.Fatal(err)
	}
	baseline, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != len(res.Findings) {
		t.Fatalf("baseline has %d fingerprints, want %d", len(baseline), len(res.Findings))
	}

	// Every pre-existing finding is baselined away.
	res2 := driveFixture(t, analysis.Options{Baseline: baseline})
	if len(res2.Findings) != 0 || res2.Baselined != len(res.Findings) {
		t.Errorf("with full baseline: %d findings, %d baselined; want 0, %d",
			len(res2.Findings), res2.Baselined, len(res.Findings))
	}

	// A finding not in the baseline (simulating new code) still surfaces.
	novel := res.Findings[0]
	delete(baseline, novel.Fingerprint)
	res3 := driveFixture(t, analysis.Options{Baseline: baseline})
	if len(res3.Findings) != 1 || res3.Findings[0].Fingerprint != novel.Fingerprint {
		t.Errorf("with one fingerprint removed: findings = %v, want only %s", keys(res3.Findings), novel)
	}
	if res3.Baselined != len(res.Findings)-1 {
		t.Errorf("Baselined = %d, want %d", res3.Baselined, len(res.Findings)-1)
	}

	// The duplicate pair (plainRead / plainReadAgain share rule, file, and
	// message): baselining only the first occurrence must not swallow the
	// second — the probe scenario that motivated occurrence-numbered
	// fingerprints.
	baseline, err = analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	var second analysis.Finding
	for _, f := range res.Findings {
		if f.Rule == "atomicmix" && f.Line > 29 {
			second = f
		}
	}
	if second.Fingerprint == "" {
		t.Fatal("fixture lost its duplicate atomicmix finding")
	}
	delete(baseline, second.Fingerprint)
	res4 := driveFixture(t, analysis.Options{Baseline: baseline})
	if len(res4.Findings) != 1 || res4.Findings[0].Line != second.Line {
		t.Errorf("with duplicate's fingerprint removed: findings = %v, want only %s",
			keys(res4.Findings), second)
	}
}

func TestSeverityOverride(t *testing.T) {
	res := driveFixture(t, analysis.Options{
		Severities: map[string]analysis.Severity{"goroscope": analysis.SevWarn},
	})
	if res.Warnings() != 1 {
		t.Errorf("Warnings = %d, want 1 (goroscope demoted)", res.Warnings())
	}
	if res.Errors() != len(fixtureWant)-1 {
		t.Errorf("Errors = %d, want %d", res.Errors(), len(fixtureWant)-1)
	}
	for _, f := range res.Findings {
		want := "error"
		if f.Rule == "goroscope" {
			want = "warning"
		}
		if f.Severity != want {
			t.Errorf("%s severity = %s, want %s", f, f.Severity, want)
		}
	}
}

// copyTree clones src into dst, applying rename (old→new relative path)
// to file names along the way.
func copyTree(t *testing.T, src, dst string, rename map[string]string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if to, ok := rename[filepath.ToSlash(rel)]; ok {
			rel = filepath.FromSlash(to)
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// driveAt runs the full suite over a fixture clone rooted at dir.
func driveAt(t *testing.T, dir string, opts analysis.Options) *analysis.Result {
	t.Helper()
	opts.All = true
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Drive(l, registry.All(), []string{"./..."}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBaselineMatchContent exercises the rename robustness the content
// mode buys: a baseline written with -baseline-match=content keeps
// suppressing a file's findings after the file is renamed, where the
// default path mode resurrects them.
func TestBaselineMatchContent(t *testing.T) {
	content := analysis.Options{BaselineMatch: analysis.BaselineMatchContent}
	resPath := driveFixture(t, analysis.Options{})
	resContent := driveFixture(t, content)
	if len(resContent.Findings) != len(resPath.Findings) {
		t.Fatalf("content mode changed the finding set: %d vs %d", len(resContent.Findings), len(resPath.Findings))
	}
	differ := false
	for i := range resContent.Findings {
		if resContent.Findings[i].Fingerprint != resPath.Findings[i].Fingerprint {
			differ = true
		}
	}
	if !differ {
		t.Fatal("content fingerprints are identical to path fingerprints")
	}

	writeBaseline := func(findings []analysis.Finding) map[string]bool {
		t.Helper()
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := analysis.WriteBaseline(path, findings); err != nil {
			t.Fatal(err)
		}
		b, err := analysis.LoadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Clone the fixture with state/state.go renamed. (The lockorder and
	// atomicmix findings in dirty/ cite their own file's base name in the
	// message, so renaming that file legitimately changes their content —
	// state/'s statesync and snapalias messages are position-free.)
	clone := t.TempDir()
	copyTree(t, "testdata/fixture", clone, map[string]string{"state/state.go": "state/renamed.go"})

	// Content baseline: the rename does not resurrect anything.
	res := driveAt(t, clone, analysis.Options{
		Baseline:      writeBaseline(resContent.Findings),
		BaselineMatch: analysis.BaselineMatchContent,
	})
	if len(res.Findings) != 0 {
		t.Errorf("content baseline after rename: findings = %v, want none", keys(res.Findings))
	}
	if res.Baselined != len(resContent.Findings) {
		t.Errorf("content baseline after rename: baselined = %d, want %d", res.Baselined, len(resContent.Findings))
	}

	// Path baseline: the renamed file's findings come back — the failure
	// mode content mode exists for.
	resBack := driveAt(t, clone, analysis.Options{Baseline: writeBaseline(resPath.Findings)})
	if len(resBack.Findings) == 0 {
		t.Error("path baseline after rename: expected the renamed file's findings to resurface")
	}
	if len(resBack.Findings) != 3 {
		t.Errorf("path baseline after rename: findings = %v, want the 3 from the renamed file", keys(resBack.Findings))
	}
	for _, f := range resBack.Findings {
		if f.File != "state/renamed.go" {
			t.Errorf("path baseline resurrected %s; only state/renamed.go findings should resurface", f)
		}
	}
}
