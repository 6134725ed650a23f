// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis, built for the chronolint
// determinism linters (cmd/chronolint).
//
// The repository vendors no third-party code, so the framework implements
// the minimal Analyzer/Pass contract on top of the standard library's
// go/ast, go/types, and go/importer packages. Analyzers written against it
// translate mechanically to the upstream API should the repo ever take the
// x/tools dependency.
//
// # Annotations
//
// Lint findings are suppressed line-by-line with //chrono: comment
// directives placed on the flagged line or on the line immediately above:
//
//	//chrono:wallclock           — detclock: legitimate wall-clock use
//	                               (progress reporting, log timestamps)
//	//chrono:ordered-irrelevant  — maporder: map iteration order provably
//	                               does not reach simulation results
//
// Directives may carry a free-form justification after the name, e.g.
// //chrono:wallclock progress timing only, never enters results.
//
// In addition, every analyzer honours the shared suppression form
//
//	//chrono:allow <analyzer> <reason>
//
// which the driver applies centrally: a diagnostic reported by <analyzer>
// whose line (or the line above) carries a matching allow directive is
// dropped before it is returned. The <reason> is mandatory by convention —
// an allow without one should not survive review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is the one-paragraph description shown by chronolint -list.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries the per-package inputs of one analyzer run and collects its
// diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// SourcePkg is the loaded package the pass runs over, giving
	// interprocedural analyzers (internal/analysis/flow) access to the
	// loader for module-local callee ASTs. Nil for hand-built passes.
	SourcePkg *Package

	diags       []Diagnostic
	annotations map[annotationKey]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
	// Suggest, when non-empty, is the exact directive line chronolint
	// -suggest prints for this finding instead of the generic
	// //chrono:allow template — e.g. a //chrono:statesync or
	// //chrono:hotpath fence the analyzer knows would resolve the finding
	// structurally.
	Suggest string
}

// String formats the diagnostic in the canonical file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ReportSuggestf records a finding at pos carrying a concrete fence
// suggestion — the directive line -suggest prints for it.
func (p *Pass) ReportSuggestf(pos token.Pos, suggest, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
		Suggest:  suggest,
	})
}

// Diagnostics returns the findings reported so far, ordered by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// annotationKey locates one //chrono: directive occurrence.
type annotationKey struct {
	file string
	line int
	name string
}

// buildAnnotations indexes every //chrono:<name> directive of the package
// by (file, line, name).
func (p *Pass) buildAnnotations() {
	p.annotations = make(map[annotationKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "chrono:") {
					continue
				}
				rest := strings.TrimPrefix(text, "chrono:")
				name := rest
				if i := strings.IndexAny(name, " \t"); i >= 0 {
					name = name[:i]
				}
				if name == "allow" {
					// //chrono:allow <analyzer> <reason> — index under
					// "allow:<analyzer>" so the driver can filter that
					// analyzer's diagnostics centrally.
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						continue // malformed: no analyzer named
					}
					name = "allow:" + fields[1]
				}
				pos := p.Fset.Position(c.Pos())
				p.annotations[annotationKey{pos.Filename, pos.Line, name}] = true
			}
		}
	}
}

// Annotated reports whether a //chrono:<name> directive covers pos: the
// directive sits on the same line (trailing comment) or on the line
// immediately above (standalone comment).
func (p *Pass) Annotated(pos token.Pos, name string) bool {
	if p.annotations == nil {
		p.buildAnnotations()
	}
	at := p.Fset.Position(pos)
	return p.annotations[annotationKey{at.Filename, at.Line, name}] ||
		p.annotations[annotationKey{at.Filename, at.Line - 1, name}]
}

// ImportedPkg resolves an identifier to the package it names, if the
// identifier is the qualifier of a selector like time.Now. It returns nil
// for anything that is not a package name.
func (p *Pass) ImportedPkg(ident *ast.Ident) *types.Package {
	if obj, ok := p.TypesInfo.Uses[ident]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported()
		}
	}
	return nil
}

// Run applies a to pkg and returns its diagnostics, minus any suppressed
// by a //chrono:allow <analyzer> directive on the finding's line or the
// line above.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	kept, _, err := RunCount(a, pkg)
	return kept, err
}

// RunCount is Run plus the number of diagnostics the central
// //chrono:allow filter suppressed, so drivers can report suppression
// counts.
func RunCount(a *Analyzer, pkg *Package) (kept []Diagnostic, suppressed int, err error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		SourcePkg: pkg,
	}
	if err := a.Run(pass); err != nil {
		return nil, 0, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	if pass.annotations == nil {
		pass.buildAnnotations()
	}
	allow := "allow:" + a.Name
	kept = pass.Diagnostics()[:0]
	for _, d := range pass.Diagnostics() {
		if pass.annotations[annotationKey{d.Pos.Filename, d.Pos.Line, allow}] ||
			pass.annotations[annotationKey{d.Pos.Filename, d.Pos.Line - 1, allow}] {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed, nil
}

// Directive is one parsed //chrono:<name> [args] comment.
type Directive struct {
	Pos  token.Position
	Name string // "allow", "state", "rebuilt", "statesync", ...
	Args string // everything after the name, space-trimmed
}

// ParseDirective parses a single comment as a //chrono: directive,
// reporting ok=false for ordinary comments. Only comments whose text
// starts exactly with "//chrono:" parse — prose that merely mentions the
// grammar (doc comments, indented examples) does not.
func ParseDirective(c *ast.Comment) (name, args string, ok bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, "chrono:") {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, "chrono:")
	name = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name = rest[:i]
		args = strings.TrimSpace(rest[i:])
	}
	return name, args, true
}

// Directives parses every //chrono: directive in the comment group
// (nil-safe).
func Directives(fset *token.FileSet, cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		if name, args, ok := ParseDirective(c); ok {
			out = append(out, Directive{Pos: fset.Position(c.Pos()), Name: name, Args: args})
		}
	}
	return out
}

// knownDirectives is the complete //chrono: directive vocabulary (see
// DESIGN.md "Directive grammar"). Anything else is a typo the driver
// reports as a lint error — a misspelled suppression must never be a
// silent no-op.
var knownDirectives = map[string]bool{
	"allow":              true, // //chrono:allow <analyzer> <reason>
	"wallclock":          true, // detclock: legitimate wall-clock use
	"ordered-irrelevant": true, // maporder/floatorder: order provably irrelevant
	"statesync":          true, // statesync: pairs a struct with its checkpoint state struct
	"state":              true, // statesync: field -> state field(s) mapping
	"rebuilt":            true, // statesync: field rebuilt by code, with justification
	"hotpath":            true, // hotalloc: function (and transitive callees) must not allocate
}

// CheckDirectives validates every //chrono: directive of the package
// against the vocabulary and, for //chrono:allow, against the set of
// analyzer names: unknown directives and typo'd or reasonless allows are
// diagnostics (rule "directive"), so a suppression that would silently
// match nothing fails the lint run instead.
func CheckDirectives(pkg *Package, analyzerNames map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		out = append(out, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: "directive"})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, d := range Directives(pkg.Fset, cg) {
				if !knownDirectives[d.Name] {
					report(d.Pos, "unknown //chrono:%s directive (known: allow, wallclock, "+
						"ordered-irrelevant, statesync, state, rebuilt, hotpath)", d.Name)
					continue
				}
				if d.Name != "allow" {
					continue
				}
				fields := strings.Fields(d.Args)
				if len(fields) == 0 {
					report(d.Pos, "//chrono:allow names no analyzer; write //chrono:allow <analyzer> <reason>")
					continue
				}
				if !analyzerNames[fields[0]] {
					report(d.Pos, "//chrono:allow names unknown analyzer %q — the suppression matches "+
						"nothing; known analyzers: see chronolint -list", fields[0])
					continue
				}
				if len(fields) == 1 {
					report(d.Pos, "//chrono:allow %s has no reason; a suppression must carry its justification", fields[0])
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}
