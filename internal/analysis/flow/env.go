package flow

// The intra-function evaluation engine. One Env holds the flow-insensitive
// facts of a single function body: per-variable taint sets and
// per-variable parameter provenance (which parameters the value may derive
// from). The engine is run in two roles:
//
//   - by the fixpoint (summarize): extract the function's summary —
//     param→return, param→state-sink, return taint — from the converged
//     local facts;
//   - by the analyzers, post-fixpoint: Env.Eval answers "what taints can
//     this expression carry / which parameters does it derive from" for
//     any expression of the body, so detflow reports at exact sites.
//
// Being flow-insensitive (one fact set per variable for the whole body),
// the engine over-approximates: a variable tainted on any path is tainted
// everywhere. That is the right polarity for a lint — no reassignment
// ordering can hide a taint — at the cost of occasional false positives
// that //chrono:allow resolves.

import (
	"go/ast"
	"go/types"
)

// facts is the lattice value of one expression or variable.
type facts struct {
	taint  TaintSet
	params uint32 // bit i: value may derive from parameter i
}

func (f facts) union(o facts) facts {
	return facts{taint: f.taint | o.taint, params: f.params | o.params}
}

// Env is the converged intra-function state of one function.
type Env struct {
	pf *PkgFlow
	fi *FuncInfo

	vars     map[types.Object]*facts
	paramIdx map[types.Object]int

	// summary accumulators, filled during propagation.
	returnTaint   TaintSet
	paramToReturn uint32
	paramToState  uint32
}

// Env computes (post-fixpoint, cached) the evaluation environment of fi.
// During the fixpoint the uncached variant is used internally so stale
// summaries are never frozen into an Env.
func (pf *PkgFlow) EnvOf(fi *FuncInfo) *Env {
	if fi.env == nil {
		fi.env = pf.buildEnv(fi)
	}
	return fi.env
}

// buildEnv runs the propagation to a local fixed point.
func (pf *PkgFlow) buildEnv(fi *FuncInfo) *Env {
	env := &Env{
		pf:       pf,
		fi:       fi,
		vars:     make(map[types.Object]*facts),
		paramIdx: make(map[types.Object]int),
	}
	sig, _ := fi.Obj.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			env.paramIdx[sig.Params().At(i)] = i
		}
	}
	if fi.Decl.Body == nil {
		return env
	}
	// Iterate the body until variable facts stabilize. The lattice is
	// finite and unions are monotone, so this terminates; bodies are
	// small, so the cap is defensive only.
	for round := 0; round < 32; round++ {
		if !env.propagate() {
			break
		}
	}
	// One final pass with converged facts to collect the summary
	// accumulators (they are monotone too, but collecting on the last
	// pass keeps them consistent with the final variable facts).
	env.returnTaint, env.paramToReturn, env.paramToState = 0, 0, 0
	env.collect()
	return env
}

// propagate runs one pass of assignments over the body, reporting whether
// any variable's facts grew.
func (env *Env) propagate() bool {
	w := &walker{env: env, mode: modePropagate}
	w.stmt(env.fi.Decl.Body)
	return w.changed
}

// collect runs one pass gathering summary accumulators.
func (env *Env) collect() {
	w := &walker{env: env, mode: modeCollect}
	w.stmt(env.fi.Decl.Body)
}

// Eval returns the facts of an expression under the converged state.
func (env *Env) Eval(e ast.Expr) (TaintSet, uint32) {
	f := env.eval(e)
	return f.taint, f.params
}

// eval computes the facts of one expression.
func (env *Env) eval(e ast.Expr) facts {
	info := env.pf.Pkg.TypesInfo
	switch v := unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[v]
		if obj == nil {
			obj = info.Defs[v]
		}
		var f facts
		if obj != nil {
			if i, ok := env.paramIdx[obj]; ok {
				f.params |= 1 << uint(i)
			}
			if vf, ok := env.vars[obj]; ok {
				f = f.union(*vf)
			}
		}
		return f
	case *ast.CallExpr:
		return env.evalCall(v)
	case *ast.BinaryExpr:
		return env.eval(v.X).union(env.eval(v.Y))
	case *ast.UnaryExpr:
		return env.eval(v.X)
	case *ast.StarExpr:
		return env.eval(v.X)
	case *ast.SelectorExpr:
		// Package-qualified name: no local facts.
		if id, ok := v.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return facts{}
			}
		}
		return env.eval(v.X)
	case *ast.IndexExpr:
		return env.eval(v.X).union(env.eval(v.Index))
	case *ast.SliceExpr:
		return env.eval(v.X)
	case *ast.CompositeLit:
		var f facts
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			f = f.union(env.eval(el))
		}
		return f
	case *ast.TypeAssertExpr:
		return env.eval(v.X)
	case *ast.FuncLit, *ast.BasicLit:
		return facts{}
	}
	return facts{}
}

// evalCall computes the facts of a call: conversions pass their operand
// through, modelled stdlib sources generate taint, summarized callees
// combine their return taint with the taints of arguments that flow to
// the return, and unknown calls use the pure-function model (result
// derives from the arguments).
func (env *Env) evalCall(call *ast.CallExpr) facts {
	info := env.pf.Pkg.TypesInfo
	// Type conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return env.eval(call.Args[0])
		}
		return facts{}
	}
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "append", "min", "max":
				var f facts
				for _, a := range call.Args {
					f = f.union(env.eval(a))
				}
				return f
			case "len", "cap", "make", "new":
				return facts{} // deterministic of structure, no value taint
			default:
				return facts{}
			}
		}
	}
	callee := StaticCallee(info, call)
	if callee != nil {
		// Standard-library source model.
		if ts, modelled := stdlibTaint(callee); modelled {
			return facts{taint: ts}
		}
		if s := env.pf.FuncInfoOf(callee); s != nil {
			f := facts{taint: s.ReturnTaint}
			for i, a := range call.Args {
				if i < 32 && s.ParamToReturn&(1<<uint(i)) != 0 {
					af := env.eval(a)
					f.taint |= af.taint
					f.params |= af.params
				}
			}
			return f
		}
		if callee.Pkg() != nil && !isModuleLocal(env.pf.Pkg.ModulePath(), callee.Pkg().Path()) {
			// Unmodelled stdlib: pure-function model.
			return env.argUnion(call)
		}
	}
	// Dynamic or unresolved call: pure-function model.
	return env.argUnion(call)
}

func (env *Env) argUnion(call *ast.CallExpr) facts {
	var f facts
	for _, a := range call.Args {
		f = f.union(env.eval(a))
	}
	// A method call's receiver contributes too: x.Get() derives from x.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); !isIdent || !isPkgName(env.pf.Pkg.TypesInfo, id) {
			f = f.union(env.eval(sel.X))
		}
	}
	return f
}

func isPkgName(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.PkgName)
	return ok
}

// StaticCallee resolves a call expression to its static callee, or nil
// for dynamic dispatch (interface methods, func values) and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil // dynamic dispatch
			}
			return f
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified call
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
