package analysis

// The chronolint driver: expands package patterns, scopes and runs a set
// of analyzers, validates //chrono: directives, and folds the diagnostics
// into Findings carrying a stable fingerprint. Every finding gates. The driver
// lives in the library (not cmd/chronolint) so the integration tests can
// run the full suite over fixture modules in-process.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
)

// DirectiveRule is the rule ID under which directive-grammar violations
// (unknown //chrono: names, typo'd or reasonless allows) are reported.
const DirectiveRule = "directive"

// Finding is one driver-level diagnostic: a rule violation at a
// module-relative location, with a line-insensitive fingerprint that
// identifies it across edits (SARIF's partialFingerprints).
type Finding struct {
	// Rule is the analyzer name, or DirectiveRule for grammar violations.
	Rule string
	// File is the module-relative, slash-separated path.
	File    string
	Line    int
	Column  int
	Message string
	// Fingerprint identifies the finding across line drift: it hashes
	// rule, file, and message, but not position.
	Fingerprint string
	// Suggest, when non-empty, is the exact directive line that would
	// resolve the finding structurally (//chrono:statesync <T>,
	// //chrono:hotpath) — printed by chronolint -suggest in place of the
	// generic //chrono:allow template.
	Suggest string
}

// String formats the finding in the canonical file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Column, f.Message, f.Rule)
}

// Options configures one driver run.
type Options struct {
	// All disables package scoping: every analyzer runs on every package.
	All bool
}

// Result is the outcome of one driver run.
type Result struct {
	// Findings are the kept findings, ordered by file, line, column, rule.
	Findings []Finding
	// Suppressed counts diagnostics dropped by //chrono:allow directives.
	Suppressed int
}

// Fingerprint computes the identity of a finding: the hash covers rule,
// module-relative file, and message — not line or column — so unrelated
// edits shifting code do not churn it. When several findings in one run
// share all three (e.g. two plain accesses of the same atomically-used
// variable produce identical messages), the second and later occurrences
// get an occurrence counter mixed in, in position order, so every
// finding of a run has a distinct fingerprint.
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
	for _, a := range analyzers {
		names[a.Name] = true
	}

	res := &Result{}
	keep := func(d Diagnostic) {
		res.Findings = append(res.Findings, Finding{
			Rule:    d.Analyzer,
			File:    relPath(l.ModRoot(), d.Pos.Filename),
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Message: d.Message,
			Suggest: d.Suggest,
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

	all := res.Findings
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
	// numbers are deterministic (position order).
	occ := make(map[string]int, len(all))
	for i := range all {
		key := all[i].Rule + "\x00" + all[i].File + "\x00" + all[i].Message
		occ[key]++
		all[i].Fingerprint = fingerprintN(all[i].Rule, all[i].File, all[i].Message, occ[key])
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
