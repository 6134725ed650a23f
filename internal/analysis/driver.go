package analysis

// The chronolint driver: expands package patterns, scopes and runs a set
// of analyzers, validates //chrono: directives, and folds the diagnostics
// into Findings carrying severity and a stable fingerprint. The driver
// lives in the library (not cmd/chronolint) so the integration tests can
// run the full suite over fixture modules in-process.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
)

// DirectiveRule is the rule ID under which directive-grammar violations
// (unknown //chrono: names, typo'd or reasonless allows) are reported.
const DirectiveRule = "directive"

// Finding is one driver-level diagnostic: a rule violation at a
// module-relative location, with the severity the run resolved for its
// analyzer and a line-insensitive fingerprint for baselining.
type Finding struct {
	// Rule is the analyzer name, or DirectiveRule for grammar violations.
	Rule string `json:"rule"`
	// File is the module-relative, slash-separated path.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
	// Severity is "error" or "warning".
	Severity string `json:"severity"`
	// Fingerprint identifies the finding across line drift: it hashes
	// rule, file, and message, but not position.
	Fingerprint string `json:"fingerprint"`
	// Suggest, when non-empty, is the exact directive line that would
	// resolve the finding structurally (//chrono:statesync <T>,
	// //chrono:hotpath) — printed by chronolint -suggest in place of the
	// generic //chrono:allow template.
	Suggest string `json:"suggest,omitempty"`
}

// String formats the finding in the canonical file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Column, f.Message, f.Rule)
}

// Baseline-matching modes: how fingerprints identify a finding across
// edits.
const (
	// BaselineMatchPath (the default) hashes rule, file, and message — a
	// finding keeps its identity across line drift but not across file
	// renames.
	BaselineMatchPath = "path"
	// BaselineMatchContent hashes rule and message only, so moving a file
	// does not resurrect its baselined findings. Identical messages in
	// different files collapse onto one occurrence sequence (ordered by
	// file, then position).
	BaselineMatchContent = "content"
)

// Options configures one driver run.
type Options struct {
	// All disables package scoping: every analyzer runs on every package.
	All bool
	// Severities overrides per-analyzer severity by name.
	Severities map[string]Severity
	// Baseline is a set of fingerprints to suppress (pre-existing,
	// acknowledged findings). Findings matching it are counted in
	// Result.Baselined instead of being reported.
	Baseline map[string]bool
	// BaselineMatch selects the fingerprint mode: BaselineMatchPath
	// (default, "" included) or BaselineMatchContent. The mode must match
	// the one the baseline file was written under.
	BaselineMatch string
}

// Result is the outcome of one driver run.
type Result struct {
	// Findings are the kept findings, ordered by file, line, column, rule.
	Findings []Finding `json:"findings"`
	// Suppressed counts diagnostics dropped by //chrono:allow directives.
	Suppressed int `json:"suppressed"`
	// Baselined counts findings dropped by the baseline.
	Baselined int `json:"baselined"`
}

// Errors counts kept findings with severity "error" — the gating set.
func (r *Result) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == SevError.String() {
			n++
		}
	}
	return n
}

// Warnings counts kept findings with severity "warning".
func (r *Result) Warnings() int {
	return len(r.Findings) - r.Errors()
}

// Fingerprint computes the baseline identity of a finding: the hash
// covers rule, module-relative file, and message — not line or column —
// so unrelated edits shifting code do not churn the baseline. When
// several findings in one run share all three (e.g. two plain accesses
// of the same atomically-used variable produce identical messages), the
// second and later occurrences get an occurrence counter mixed in, in
// position order — otherwise a baseline entry for the first would
// silently swallow a genuinely new duplicate.
func Fingerprint(rule, file, message string) string {
	return fingerprintN(rule, file, message, 1)
}

func fingerprintN(rule, file, message string, occurrence int) string {
	h := sha256.New()
	h.Write([]byte(rule))
	h.Write([]byte{0})
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(message))
	if occurrence > 1 {
		fmt.Fprintf(h, "\x00#%d", occurrence)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Drive runs the analyzers over the packages matched by patterns and
// returns the folded result. Directive validation (CheckDirectives) runs
// once per loaded package under the DirectiveRule rule; packages where no
// analyzer applies are not loaded at all.
func Drive(l *Loader, analyzers []*Analyzer, patterns []string, opts Options) (*Result, error) {
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(analyzers))
	severity := make(map[string]Severity, len(analyzers)+1)
	for _, a := range analyzers {
		names[a.Name] = true
		severity[a.Name] = a.Severity
	}
	severity[DirectiveRule] = SevError
	for name, sev := range opts.Severities {
		severity[name] = sev
	}

	res := &Result{}
	var all []Finding
	keep := func(d Diagnostic) {
		file := relPath(l.ModRoot(), d.Pos.Filename)
		all = append(all, Finding{
			Rule:     d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
			Severity: severity[d.Analyzer].String(),
			Suggest:  d.Suggest,
		})
	}

	for _, path := range paths {
		var applicable []*Analyzer
		for _, a := range analyzers {
			if opts.All || Applies(a.Name, l.ModulePath(), path) {
				applicable = append(applicable, a)
			}
		}
		if len(applicable) == 0 {
			continue
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		for _, d := range CheckDirectives(pkg, names) {
			keep(d)
		}
		for _, a := range applicable {
			diags, suppressed, err := RunCount(a, pkg)
			if err != nil {
				return nil, err
			}
			res.Suppressed += suppressed
			for _, d := range diags {
				keep(d)
			}
		}
	}

	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
	// Fingerprints are assigned after sorting so duplicate occurrence
	// numbers are deterministic (position order), then the baseline is
	// applied to the uniquified set. Content mode drops the file from the
	// hash (and from the occurrence key, to stay collision-consistent).
	occ := make(map[string]int, len(all))
	for i := range all {
		fpFile := all[i].File
		if opts.BaselineMatch == BaselineMatchContent {
			fpFile = ""
		}
		key := all[i].Rule + "\x00" + fpFile + "\x00" + all[i].Message
		occ[key]++
		all[i].Fingerprint = fingerprintN(all[i].Rule, fpFile, all[i].Message, occ[key])
	}
	for _, f := range all {
		if opts.Baseline[f.Fingerprint] {
			res.Baselined++
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	return res, nil
}

// relPath renders filename relative to root with forward slashes, falling
// back to the input when it is not under root.
func relPath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// jsonReport is the -format json envelope.
type jsonReport struct {
	Version    int       `json:"version"`
	Findings   []Finding `json:"findings"`
	Suppressed int       `json:"suppressed"`
	Baselined  int       `json:"baselined"`
	Errors     int       `json:"errors"`
	Warnings   int       `json:"warnings"`
}

// JSONReport marshals the result as the stable machine-readable report.
func JSONReport(res *Result) ([]byte, error) {
	findings := res.Findings
	if findings == nil {
		findings = []Finding{}
	}
	return json.MarshalIndent(jsonReport{
		Version:    1,
		Findings:   findings,
		Suppressed: res.Suppressed,
		Baselined:  res.Baselined,
		Errors:     res.Errors(),
		Warnings:   res.Warnings(),
	}, "", "  ")
}
