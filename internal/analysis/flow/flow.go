// Package flow is the interprocedural data-flow layer under the v4
// chronolint analyzers (hotalloc, detflow). It is stdlib-only,
// like the rest of internal/analysis, and provides:
//
//   - a module-local call graph: every static call site resolved through
//     go/types to its *types.Func, across package boundaries within the
//     module (dynamic dispatch through interfaces is not resolved — a
//     documented recall tradeoff, not an error);
//   - per-function summaries: which parameters may flow to return values
//     (param→return), which parameters reach checkpointed-state sinks
//     (param→sink), which determinism taints a call's result can carry,
//     which allocation sources the body contains, and whether the
//     function is rooted //chrono:hotpath;
//   - a fixpoint: summaries are iterated to a fixed point within each
//     package (mutual recursion), and packages are resolved bottom-up in
//     import order — Go's acyclic imports make the per-package results
//     exact and independently cacheable;
//   - a per-package cache: PackageFlow memoizes by *types.Package, so the
//     three analyzers (and repeated driver runs in one process) share one
//     call graph and one summary table per package.
//
// Standard-library callees have no source here; their effects come from
// small explicit models in stdlib.go (time.Now is a wall-clock taint
// source, fmt.Sprintf allocates, ...). Unknown calls propagate their
// arguments' taints to the result — the pure-function model — and are
// never treated as allocation-free proof.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"chrono/internal/analysis"
)

// Taint enumerates the nondeterminism sources detflow tracks.
type Taint uint8

const (
	// TaintWallClock marks values derived from the wall clock
	// (time.Now/Since/Until).
	TaintWallClock Taint = iota
	// TaintGlobalRand marks values drawn from math/rand's (or rand/v2's)
	// global, unseeded generators.
	TaintGlobalRand
	// TaintMapOrder marks values whose content depends on map iteration
	// order (keys/values bound by a range over a map).
	TaintMapOrder
	// TaintGoroutine marks values that depend on goroutine identity or
	// scheduling (runtime.NumGoroutine, multi-case select winners).
	TaintGoroutine
	numTaints
)

// String names the taint source the way findings spell it.
func (t Taint) String() string {
	switch t {
	case TaintWallClock:
		return "wall-clock"
	case TaintGlobalRand:
		return "global rand"
	case TaintMapOrder:
		return "map iteration order"
	case TaintGoroutine:
		return "goroutine identity"
	}
	return "unknown"
}

// TaintSet is a bitmask of Taints.
type TaintSet uint8

// Has reports whether the set contains t.
func (s TaintSet) Has(t Taint) bool { return s&(1<<t) != 0 }

// With returns the set extended by t.
func (s TaintSet) With(t Taint) TaintSet { return s | 1<<t }

// String lists the taints in declaration order, comma-separated.
func (s TaintSet) String() string {
	var parts []string
	for t := Taint(0); t < numTaints; t++ {
		if s.Has(t) {
			parts = append(parts, t.String())
		}
	}
	return strings.Join(parts, ", ")
}

// AllocKind classifies one heap-allocation source hotalloc reports.
type AllocKind uint8

const (
	// AllocMake is a make(map/slice/chan) call.
	AllocMake AllocKind = iota
	// AllocNew is a new(T) call.
	AllocNew
	// AllocLit is a heap-bound composite literal: &T{...}, a slice
	// literal, or a map literal.
	AllocLit
	// AllocAppendFresh is an append whose result does not reuse its first
	// argument's backing array (x := append(y, ...)) — every call builds
	// a fresh slice instead of amortizing growth.
	AllocAppendFresh
	// AllocClosure is a function literal that captures enclosing
	// variables; each evaluation allocates the closure environment.
	AllocClosure
	// AllocBox is an implicit concrete→interface conversion (argument
	// passing, assignment, return, composite element).
	AllocBox
	// AllocString is a string<->[]byte/[]rune conversion or a string
	// concatenation.
	AllocString
	// AllocCall is a call into a standard-library function modelled as
	// allocating (fmt, strconv.Format*, strings.Join, sort.Slice, ...).
	AllocCall
	// AllocMapWrite is a map store, which may trigger bucket growth.
	AllocMapWrite
)

// String describes the allocation source the way findings spell it.
func (k AllocKind) String() string {
	switch k {
	case AllocMake:
		return "make"
	case AllocNew:
		return "new"
	case AllocLit:
		return "composite literal"
	case AllocAppendFresh:
		return "non-reused append"
	case AllocClosure:
		return "capturing closure"
	case AllocBox:
		return "interface boxing"
	case AllocString:
		return "string conversion/concatenation"
	case AllocCall:
		return "allocating call"
	case AllocMapWrite:
		return "map store (growth)"
	}
	return "allocation"
}

// AllocSite is one direct allocation source in a function body.
type AllocSite struct {
	Pos    token.Pos
	Kind   AllocKind
	Detail string // e.g. the callee or captured variable names
}

// Call is one statically resolved call site.
type Call struct {
	Pos    token.Pos
	Callee *types.Func
	Args   []ast.Expr
}

// FuncInfo carries the call-graph node and fixpoint summary of one
// declared function or method.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package

	// Hotpath records the function's //chrono:hotpath directive.
	Hotpath bool

	// Calls are the statically resolved call sites in the body, in source
	// order (module-local and stdlib callees both included).
	Calls []Call
	// Allocs are the direct allocation sources in the body.
	Allocs []AllocSite

	// Fixpoint facts. ParamToReturn bit i: parameter i may flow into a
	// return value. ParamToState bit i: parameter i may be stored into a
	// //chrono:state-annotated field (directly or through callees).
	// ReturnTaint: taints the return values can carry regardless of
	// arguments.
	ParamToReturn uint32
	ParamToState  uint32
	ReturnTaint   TaintSet

	// env caches the post-fixpoint evaluation environment (EnvOf).
	env *Env
}

// Name renders the function as package-local dotted name (Recv.Method or
// Func).
func (fi *FuncInfo) Name() string {
	if fi.Obj == nil {
		return "?"
	}
	if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fi.Obj.Name()
		}
	}
	return fi.Obj.Name()
}

// FieldAnn records the flow-relevant directives on one struct field.
type FieldAnn struct {
	// State: the field carries //chrono:state — it is checkpointed, so
	// storing a determinism-tainted value into it is a detflow finding.
	State bool
}

// PkgFlow is the flow analysis of one package: its call-graph nodes,
// fixpointed summaries, and annotated-field index. Instances are cached
// globally by *types.Package; obtain them through PackageFlow.
type PkgFlow struct {
	Pkg *analysis.Package
	// Funcs maps every declared function/method to its info.
	Funcs map[*types.Func]*FuncInfo
	// Fields maps annotated struct fields (declared in this package) to
	// their directives.
	Fields map[*types.Var]FieldAnn

	// allowLines indexes //chrono:allow <analyzer> directives by file and
	// line, so analyzers reporting into *other* packages' files (hotalloc
	// findings in a callee package) can honour that file's own
	// suppressions — the pass-level filter only sees the current
	// package's comments.
	allowLines map[string]map[int]map[string]bool

	// ordered holds Funcs in source order for deterministic fixpoint and
	// iteration.
	ordered []*FuncInfo
	// hot caches HotReachable.
	hot map[*types.Func]HotPath
}

// cache memoizes PkgFlow per *types.Package. The driver is
// single-threaded, but analyzer tests run packages in parallel processes
// of one runtime — the mutex keeps the map safe either way.
var cache = struct {
	sync.Mutex
	pkgs map[*types.Package]*PkgFlow
}{pkgs: make(map[*types.Package]*PkgFlow)}

// Of returns the flow analysis for the pass's package, computing (and
// caching) it and its module-local imports bottom-up on first use.
func Of(pass *analysis.Pass) (*PkgFlow, error) {
	if pass.SourcePkg == nil {
		return nil, fmt.Errorf("flow: pass has no source package (hand-built pass?)")
	}
	return PackageFlow(pass.SourcePkg)
}

// PackageFlow computes (or returns the cached) flow analysis of pkg.
// Module-local imports are resolved first, so cross-package call sites
// see final callee summaries; within the package a worklist iterates
// mutual recursion to a fixed point.
func PackageFlow(pkg *analysis.Package) (*PkgFlow, error) {
	cache.Lock()
	if pf, ok := cache.pkgs[pkg.Types]; ok {
		cache.Unlock()
		return pf, nil
	}
	cache.Unlock()

	// Resolve module-local imports bottom-up. Imports are acyclic, so
	// recursion terminates; each level is cached on the way out.
	modPath := pkg.ModulePath()
	for _, imp := range pkg.Types.Imports() {
		if modPath == "" || !isModuleLocal(modPath, imp.Path()) {
			continue
		}
		sub, err := pkg.Import(imp.Path())
		if err != nil {
			return nil, fmt.Errorf("flow: loading %s (import of %s): %w", imp.Path(), pkg.Path, err)
		}
		if _, err := PackageFlow(sub); err != nil {
			return nil, err
		}
	}

	pf := newPkgFlow(pkg)
	for _, fi := range pf.ordered {
		pf.scan(fi)
	}
	pf.fixpoint()

	cache.Lock()
	cache.pkgs[pkg.Types] = pf
	cache.Unlock()
	return pf, nil
}

// isModuleLocal reports whether path names a package of the module.
func isModuleLocal(modPath, path string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

// FuncInfoOf resolves a callee to its info, in this package or any cached
// one (module-local imports of this package are always cached by the time
// PackageFlow returns). Nil for stdlib and unknown functions.
func (pf *PkgFlow) FuncInfoOf(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	if fi, ok := pf.Funcs[fn]; ok {
		return fi
	}
	if fn.Pkg() == nil || fn.Pkg() == pf.Pkg.Types {
		return nil
	}
	cache.Lock()
	other, ok := cache.pkgs[fn.Pkg()]
	cache.Unlock()
	if !ok {
		return nil
	}
	return other.Funcs[fn]
}

// FieldAnnOf resolves a struct field to its directives, in this package
// or any cached one. The zero FieldAnn means unannotated.
func (pf *PkgFlow) FieldAnnOf(field *types.Var) FieldAnn {
	if field == nil {
		return FieldAnn{}
	}
	if field.Pkg() == pf.Pkg.Types {
		return pf.Fields[field]
	}
	cache.Lock()
	other, ok := cache.pkgs[field.Pkg()]
	cache.Unlock()
	if !ok {
		return FieldAnn{}
	}
	return other.Fields[field]
}

// Ordered returns the package's functions in source order.
func (pf *PkgFlow) Ordered() []*FuncInfo { return pf.ordered }

// AllowedAt reports whether a //chrono:allow <analyzer> directive in THIS
// package's sources covers the position (same line or the line above) —
// the cross-package variant of Pass.Annotated, for findings an analyzer
// reports into a callee package's file.
func (pf *PkgFlow) AllowedAt(pos token.Position, analyzer string) bool {
	lines, ok := pf.allowLines[pos.Filename]
	if !ok {
		return false
	}
	return lines[pos.Line][analyzer] || lines[pos.Line-1][analyzer]
}

// newPkgFlow builds the pre-fixpoint package state: function infos with
// their directives, the annotated-field index, and the allow-line index.
func newPkgFlow(pkg *analysis.Package) *PkgFlow {
	pf := &PkgFlow{
		Pkg:        pkg,
		Funcs:      make(map[*types.Func]*FuncInfo),
		Fields:     make(map[*types.Var]FieldAnn),
		allowLines: make(map[string]map[int]map[string]bool),
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: d, Pkg: pkg}
				for _, dir := range analysis.Directives(pkg.Fset, d.Doc) {
					if dir.Name == "hotpath" {
						fi.Hotpath = true
					}
				}
				pf.Funcs[obj] = fi
				pf.ordered = append(pf.ordered, fi)
			case *ast.GenDecl:
				if d.Tok == token.TYPE {
					pf.indexStructFields(d)
				}
			}
		}
		pf.indexAllowLines(f)
	}
	return pf
}

// indexStructFields records //chrono:state directives on struct fields, keyed by their *types.Var objects.
func (pf *PkgFlow) indexStructFields(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			var ann FieldAnn
			dirs := analysis.Directives(pf.Pkg.Fset, field.Doc)
			dirs = append(dirs, analysis.Directives(pf.Pkg.Fset, field.Comment)...)
			for _, d := range dirs {
				if d.Name == "state" {
					ann.State = true
				}
			}
			if !ann.State {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pf.Pkg.TypesInfo.Defs[name].(*types.Var); ok {
					pf.Fields[v] = ann
				}
			}
			if len(field.Names) == 0 { // embedded field
				if v, ok := pf.Pkg.TypesInfo.Defs[embeddedIdent(field.Type)].(*types.Var); ok {
					pf.Fields[v] = ann
				}
			}
		}
	}
}

// embeddedIdent returns the identifier naming an embedded field's type.
func embeddedIdent(e ast.Expr) *ast.Ident {
	switch v := e.(type) {
	case *ast.Ident:
		return v
	case *ast.StarExpr:
		return embeddedIdent(v.X)
	case *ast.SelectorExpr:
		return v.Sel
	}
	return nil
}

// indexAllowLines records the //chrono:allow <analyzer> lines of a file.
func (pf *PkgFlow) indexAllowLines(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, args, ok := analysis.ParseDirective(c)
			if !ok || name != "allow" {
				continue
			}
			fields := strings.Fields(args)
			if len(fields) == 0 {
				continue
			}
			pos := pf.Pkg.Fset.Position(c.Pos())
			lines := pf.allowLines[pos.Filename]
			if lines == nil {
				lines = make(map[int]map[string]bool)
				pf.allowLines[pos.Filename] = lines
			}
			set := lines[pos.Line]
			if set == nil {
				set = make(map[string]bool)
				lines[pos.Line] = set
			}
			set[fields[0]] = true
		}
	}
}

// fixpoint iterates the package's function summaries until stable. Each
// round re-runs the intra-function evaluation with the current summaries;
// cross-package callees are already final (imports resolved first), so
// only intra-package recursion needs iteration. Summaries grow
// monotonically (bitmask unions), so termination is bounded by the
// lattice height.
func (pf *PkgFlow) fixpoint() {
	for round := 0; ; round++ {
		changed := false
		for _, fi := range pf.ordered {
			if pf.summarize(fi) {
				changed = true
			}
		}
		if !changed {
			return
		}
		if round > 64 { // defensive: the lattice is tiny, this never trips
			return
		}
	}
}
