package analysis_test

// Scoping tests: where each analyzer applies (Applies), which
// directories the pattern expander refuses to descend into (Expand's
// testdata/vendor/hidden exclusions), and the package-scope
// directive-grammar findings (CheckDirectives) that catch misspelled
// suppressions before they become silent no-ops.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chrono/internal/analysis"
	"chrono/internal/analysis/registry"
)

const mod = "chrono"

// appliesMatrix pins the scoping contract for every analyzer against the
// package classes DESIGN.md names. A scoping regression (an analyzer
// silently dropping out of the engine, or starting to police its own
// fixtures) shows up here as a one-line diff.
var appliesMatrix = []struct {
	analyzer string
	pkg      string
	want     bool
}{
	// detclock runs on simulation code, drivers, and examples.
	{"detclock", "chrono/internal/engine", true},
	{"detclock", "chrono/internal/policy/memtis", true},
	{"detclock", "chrono/cmd/chronosim", true},
	{"detclock", "chrono/examples/quickstart", true},
	{"detclock", "chrono/internal/trace", false},
	// maporder is sim-only: drivers may range maps for display.
	{"maporder", "chrono/internal/mem", true},
	{"maporder", "chrono/cmd/chronosim", false},
	{"maporder", "chrono/examples/quickstart", false},
	// errsink: drivers, examples, and the engine (whose dropped errors
	// silently corrupt runs); not the rest of internal/.
	{"errsink", "chrono/cmd/chronoctl", true},
	{"errsink", "chrono/examples/quickstart", true},
	{"errsink", "chrono/internal/engine", true},
	{"errsink", "chrono/internal/mem", false},
	// The broad concurrency/correctness wave: everywhere except the
	// analysis framework (self-referential fixtures).
	{"parcapture", "chrono/cmd/chronosim", true},
	{"floatorder", "chrono/internal/policy/tpp", true},
	{"lockorder", "chrono/internal/engine", true},
	{"lockorder", "chrono/internal/analysis/lockorder", false},
	{"statesync", "chrono/internal/engine", true},
	{"snapalias", "chrono/internal/core", true},
	{"snapalias", "chrono/internal/analysis/snapalias", false},
	// goroscope polices goroutine lifecycles in internal/ only.
	{"goroscope", "chrono/internal/engine", true},
	{"goroscope", "chrono/cmd/chronosim", false},
	{"goroscope", "chrono/examples/quickstart", false},
	{"goroscope", "chrono/internal/analysis/goroscope", false},
	// hotalloc follows the broad bucket: a no-op without //chrono:hotpath
	// roots, so it may run everywhere.
	{"hotalloc", "chrono/internal/simclock", true},
	{"hotalloc", "chrono/internal/analysis/flow", false},
}

func TestApplies(t *testing.T) {
	for _, tc := range appliesMatrix {
		if got := analysis.Applies(tc.analyzer, mod, tc.pkg); got != tc.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", tc.analyzer, tc.pkg, got, tc.want)
		}
	}
}

// TestAppliesCoversRegistry: every registered analyzer must apply
// somewhere, and an unregistered name must apply nowhere — Applies'
// default-deny is what keeps a typo'd analyzer name from silently
// running (or silently not running) everywhere.
func TestAppliesCoversRegistry(t *testing.T) {
	probes := []string{
		"chrono/internal/engine",
		"chrono/cmd/chronosim",
		"chrono/examples/quickstart",
		"chrono/internal/units",
	}
	for _, a := range registry.All() {
		found := false
		for _, p := range probes {
			if analysis.Applies(a.Name, mod, p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("analyzer %s applies to none of the probe packages", a.Name)
		}
	}
	for _, p := range probes {
		if analysis.Applies("nonesuch", mod, p) {
			t.Errorf("unknown analyzer applies to %s; Applies must default-deny", p)
		}
	}
}

// TestExpandSkipsTestdata drives the wildcard expander over the analysis
// subtree, which is dense with testdata fixture packages (every analyzer
// ships one) — none may leak into the package list, while the real
// packages all appear.
func TestExpandSkipsTestdata(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(paths))
	for _, p := range paths {
		got[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand leaked testdata package %s", p)
		}
	}
	for _, want := range []string{
		"chrono/internal/analysis",
		"chrono/internal/analysis/flow",
		"chrono/internal/analysis/hotalloc",
	} {
		if !got[want] {
			t.Errorf("Expand missed %s (got %v)", want, paths)
		}
	}
}

// TestCheckDirectives loads a scratch package exercising the directive
// grammar and checks the package-scope findings: unknown directive names,
// allow lines with no analyzer, unknown analyzers, and missing reasons
// are findings; the full valid vocabulary is not.
func TestCheckDirectives(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "p")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package p

//chrono:hotpth
func typo() {}

//chrono:allow
func bare() {}

//chrono:allow nonesuch because
func unknownAnalyzer() {}

//chrono:allow detclock
func noReason() {}

//chrono:hotpath
func valid() {}

//chrono:allow detclock benchmarks report wall time
func allowed() {}

type s struct {
	at int64 //chrono:state At
}
`
	if err := os.WriteFile(filepath.Join(pkgDir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(pkgDir, "scratch/p")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range registry.All() {
		names[a.Name] = true
	}
	diags := analysis.CheckDirectives(pkg, names)
	wantSubstr := []string{
		"unknown //chrono:hotpth directive",
		"names no analyzer",
		`unknown analyzer "nonesuch"`,
		"has no reason",
	}
	if len(diags) != len(wantSubstr) {
		var got []string
		for _, d := range diags {
			got = append(got, d.Message)
		}
		t.Fatalf("CheckDirectives = %d findings %v, want %d", len(diags), got, len(wantSubstr))
	}
	for i, d := range diags {
		if d.Analyzer != analysis.DirectiveRule {
			t.Errorf("finding %d rule = %q, want %q", i, d.Analyzer, analysis.DirectiveRule)
		}
		if !strings.Contains(d.Message, wantSubstr[i]) {
			t.Errorf("finding %d = %q, want substring %q", i, d.Message, wantSubstr[i])
		}
		if d.Pos.Line == 0 {
			t.Errorf("finding %d has no position", i)
		}
	}
}
