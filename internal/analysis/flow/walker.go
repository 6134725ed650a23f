package flow

// The statement walker behind Env: one pass over a function body, either
// propagating variable facts (modePropagate) or collecting the function's
// summary accumulators (modeCollect). Function-literal bodies are walked
// in the same environment — captured variables are shared objects — but
// their return statements do not contribute to the enclosing function's
// return summary.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type walkMode int

const (
	modePropagate walkMode = iota
	modeCollect
)

type walker struct {
	env     *Env
	mode    walkMode
	changed bool

	funcLitDepth int
	// selectComms > 1 while inside a comm clause of a select with several
	// communication cases: received values are scheduling-dependent.
	selectComms int
}

func (w *walker) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range v.List {
			w.stmt(st)
		}
	case *ast.AssignStmt:
		w.assign(v.Lhs, v.Rhs, v.Tok)
		for _, r := range v.Rhs {
			w.expr(r)
		}
		for _, l := range v.Lhs {
			w.expr(l)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				w.assign(lhs, vs.Values, token.DEFINE)
				for _, val := range vs.Values {
					w.expr(val)
				}
			}
		}
	case *ast.IfStmt:
		w.stmt(v.Init)
		w.expr(v.Cond)
		w.stmt(v.Body)
		w.stmt(v.Else)
	case *ast.ForStmt:
		w.stmt(v.Init)
		if v.Cond != nil {
			w.expr(v.Cond)
		}
		w.stmt(v.Post)
		w.stmt(v.Body)
	case *ast.RangeStmt:
		w.rangeStmt(v)
	case *ast.ReturnStmt:
		w.returnStmt(v)
	case *ast.SelectStmt:
		comms := 0
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comms++
			}
		}
		saved := w.selectComms
		w.selectComms = comms
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
		w.selectComms = saved
	case *ast.SwitchStmt:
		w.stmt(v.Init)
		if v.Tag != nil {
			w.expr(v.Tag)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(v.Init)
		w.stmt(v.Assign)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(v.X)
	case *ast.GoStmt:
		w.expr(v.Call)
	case *ast.DeferStmt:
		w.expr(v.Call)
	case *ast.SendStmt:
		w.expr(v.Chan)
		w.expr(v.Value)
	case *ast.IncDecStmt:
		w.expr(v.X)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt)
	}
}

// assign applies one (possibly tuple) assignment.
func (w *walker) assign(lhs, rhs []ast.Expr, tok token.Token) {
	env := w.env
	apply := func(l ast.Expr, f facts) {
		switch lv := unparen(l).(type) {
		case *ast.Ident:
			if lv.Name == "_" {
				return
			}
			obj := env.pf.Pkg.TypesInfo.Defs[lv]
			if obj == nil {
				obj = env.pf.Pkg.TypesInfo.Uses[lv]
			}
			if obj == nil {
				return
			}
			w.update(obj, f)
		case *ast.SelectorExpr:
			// Field store. Param→state-sink summary: a parameter-derived
			// value stored into a //chrono:state field makes every caller's
			// argument reach checkpointed state.
			if w.mode == modeCollect {
				if field := selectedField(env.pf.Pkg.TypesInfo, lv); field != nil {
					if env.pf.FieldAnnOf(field).State {
						env.paramToState |= f.params
					}
				}
			}
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		f := env.eval(rhs[0])
		if w.selectComms > 1 {
			f.taint = f.taint.With(TaintGoroutine)
		}
		for _, l := range lhs {
			apply(l, f)
		}
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		f := env.eval(rhs[i])
		if tok != token.ASSIGN && tok != token.DEFINE {
			// Compound assignment (+=, ...): the stored value also derives
			// from the left operand.
			f = f.union(env.eval(l))
		}
		if w.selectComms > 1 {
			f.taint = f.taint.With(TaintGoroutine)
		}
		apply(l, f)
	}
}

// update merges facts into a variable's state.
func (w *walker) update(obj types.Object, f facts) {
	vf := w.env.vars[obj]
	if vf == nil {
		vf = &facts{}
		w.env.vars[obj] = vf
	}
	if grown := vf.union(f); grown != *vf {
		*vf = grown
		w.changed = true
	}
}

// rangeStmt taints key/value variables ranged over a map with
// TaintMapOrder (plus whatever the map itself carries).
func (w *walker) rangeStmt(v *ast.RangeStmt) {
	env := w.env
	w.expr(v.X)
	f := env.eval(v.X)
	if t, ok := env.pf.Pkg.TypesInfo.Types[v.X]; ok {
		if _, isMap := t.Type.Underlying().(*types.Map); isMap {
			f.taint = f.taint.With(TaintMapOrder)
		}
	}
	if v.Key != nil {
		w.assignRangeVar(v.Key, f)
	}
	if v.Value != nil {
		w.assignRangeVar(v.Value, f)
	}
	w.stmt(v.Body)
}

func (w *walker) assignRangeVar(e ast.Expr, f facts) {
	if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
		obj := w.env.pf.Pkg.TypesInfo.Defs[id]
		if obj == nil {
			obj = w.env.pf.Pkg.TypesInfo.Uses[id]
		}
		if obj != nil {
			w.update(obj, f)
		}
	}
}

// returnStmt folds return values into the summary accumulators (collect
// mode, top-level function only — closure returns are the closure's).
func (w *walker) returnStmt(v *ast.ReturnStmt) {
	for _, r := range v.Results {
		w.expr(r)
	}
	if w.mode != modeCollect || w.funcLitDepth > 0 {
		return
	}
	env := w.env
	if len(v.Results) == 0 {
		// Naked return: named results carry the facts.
		if res := env.fi.Decl.Type.Results; res != nil {
			for _, field := range res.List {
				for _, name := range field.Names {
					if obj := env.pf.Pkg.TypesInfo.Defs[name]; obj != nil {
						if vf, ok := env.vars[obj]; ok {
							env.returnTaint |= vf.taint
							env.paramToReturn |= vf.params
						}
					}
				}
			}
		}
		return
	}
	for _, r := range v.Results {
		f := env.eval(r)
		env.returnTaint |= f.taint
		env.paramToReturn |= f.params
	}
}

// expr scans an expression subtree for nested function literals (walked
// in the same environment) and, in collect mode, for call sites whose
// callee summaries propagate parameters into sinks.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			inner := &walker{env: w.env, mode: w.mode, funcLitDepth: w.funcLitDepth + 1, selectComms: w.selectComms}
			inner.stmt(v.Body)
			if inner.changed {
				w.changed = true
			}
			return false
		case *ast.CallExpr:
			if w.mode == modeCollect {
				w.collectCallSinks(v)
			}
		}
		return true
	})
}

// collectCallSinks folds callee param→sink summaries into this
// function's: passing our parameter into a callee parameter that reaches
// a state sink transfers the obligation to our callers.
func (w *walker) collectCallSinks(call *ast.CallExpr) {
	env := w.env
	callee := StaticCallee(env.pf.Pkg.TypesInfo, call)
	if callee == nil {
		return
	}
	s := env.pf.FuncInfoOf(callee)
	if s == nil {
		return
	}
	for i, a := range call.Args {
		if i >= 32 {
			break
		}
		if s.ParamToState&(1<<uint(i)) != 0 {
			_, params := env.Eval(a)
			env.paramToState |= params
		}
	}
}

// SelectedField resolves a selector to the struct field it selects (nil
// for methods and package-qualified names) — the analyzers' entry point
// into the field-annotation index.
func SelectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	return selectedField(info, sel)
}

// selectedField resolves a selector to the struct field it selects, or
// nil for methods and package-qualified names.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// summarize recomputes fi's summary from a fresh environment (current
// callee summaries) and merges it, reporting growth. Summaries are
// monotone across fixpoint rounds, so merging is a plain union.
func (pf *PkgFlow) summarize(fi *FuncInfo) bool {
	if fi.Decl.Body == nil {
		return false
	}
	env := pf.buildEnv(fi)
	changed := false
	if env.returnTaint&^fi.ReturnTaint != 0 {
		fi.ReturnTaint |= env.returnTaint
		changed = true
	}
	if env.paramToReturn&^fi.ParamToReturn != 0 {
		fi.ParamToReturn |= env.paramToReturn
		changed = true
	}
	if env.paramToState&^fi.ParamToState != 0 {
		fi.ParamToState |= env.paramToState
		changed = true
	}
	return changed
}
