// Package handlecheck flags stale simclock.Handle values: handles used
// after Cancel, and handle variables that are rescheduled while they still
// hold a live event.
//
// simclock recycles event slots through a free list, so a Handle is only
// meaningful until its event fires or is cancelled; after Cancel the handle
// is stale and the slot may already belong to an unrelated event. The two
// bug shapes this catches:
//
//   - use-after-Cancel: clock.Cancel(h) followed by a read of h other than
//     re-Cancel, h.Cancelled(), or reassignment. Passing the stale handle
//     anywhere else acts on whatever event recycled the slot.
//   - lost reschedule: h = clock.AtKey(...) while h (by this analysis) still
//     holds a live handle from an earlier schedule. The first event keeps
//     firing but can no longer be cancelled — the engine's idiom is
//     Cancel-then-reassign (see Engine.Protect).
//
// The analysis is deliberately flow-light: it tracks handle-typed
// identifiers and selector chains through straight-line statement
// sequences only, and forgets everything at a branch (if/for/switch/defer).
// That forfeits cross-branch findings but cannot false-positive on
// branch-dependent handle lifecycles. Ticker.Cancel() takes no handle and
// is never matched. Suppress deliberate patterns with
// //chrono:allow handlecheck <reason>.
package handlecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"chrono/internal/analysis"
)

// Name identifies the analyzer (used in //chrono:allow directives).
const Name = "handlecheck"

// Analyzer is the handlecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "flag simclock.Handle values used after Cancel and handle variables " +
		"rescheduled while still live; suppress with //chrono:allow handlecheck <reason>.",
	Run: run,
}

// simclockPkg defines the Handle type this pass tracks.
const simclockPkg = "chrono/internal/simclock"

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.block(n.Body)
				}
				return false
			case *ast.FuncLit:
				c.block(n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// handle lifecycle states tracked per straight-line sequence.
const (
	stateScheduled = iota
	stateCanceled
)

// block analyses one statement list with fresh state, recursing into any
// nested blocks (which again start fresh) and dropping all state after a
// statement that branches.
func (c *checker) block(b *ast.BlockStmt) {
	state := map[string]int{}
	for _, stmt := range b.List {
		c.checkUses(stmt, state)
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, ok := c.cancelTarget(s.X); ok {
				if key != "" {
					state[key] = stateCanceled
				}
				continue
			}
		case *ast.AssignStmt:
			c.applyAssign(s, state)
			continue
		case *ast.DeclStmt:
			continue
		}
		// Anything with nested control flow: analyse the nested blocks
		// independently and forget this sequence's state — a handle
		// cancelled or scheduled under a condition has an unknown state
		// afterwards.
		if c.branches(stmt, state) {
			state = map[string]int{}
		}
	}
}

// branches recurses into any nested blocks of stmt and reports whether
// stmt contains control flow (so the caller must drop its state).
func (c *checker) branches(stmt ast.Stmt, state map[string]int) bool {
	nested := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			nested = true
			c.block(n)
			return false
		case *ast.FuncLit:
			nested = true
			c.block(n.Body)
			return false
		}
		return true
	})
	return nested
}

// applyAssign updates handle states for one assignment, flagging a
// schedule into a variable that still holds a live handle.
func (c *checker) applyAssign(as *ast.AssignStmt, state map[string]int) {
	if len(as.Lhs) != len(as.Rhs) {
		for _, lhs := range as.Lhs {
			delete(state, keyOf(lhs)) // tuple assignment: unknown
		}
		return
	}
	for i, lhs := range as.Lhs {
		key := keyOf(lhs)
		if key == "" || !c.isHandle(c.pass.TypesInfo.TypeOf(lhs)) {
			continue
		}
		if call, ok := as.Rhs[i].(*ast.CallExpr); ok && c.isHandle(c.pass.TypesInfo.TypeOf(call)) {
			if st, tracked := state[key]; tracked && st == stateScheduled {
				c.report(as.Rhs[i].Pos(),
					"reschedules into %s, which still holds a live handle; the "+
						"earlier event can no longer be cancelled — Cancel it first "+
						"(see Engine.Protect) or store the new handle elsewhere", key)
			}
			state[key] = stateScheduled
			continue
		}
		delete(state, key) // copied/zeroed: state unknown
	}
}

// cancelTarget matches x.Cancel(h) with a Handle-typed argument and
// returns h's tracking key. Ticker.Cancel() has no argument and never
// matches. ok reports whether the expression was a handle-Cancel at all.
func (c *checker) cancelTarget(e ast.Expr) (key string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 1 {
		return "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Cancel" {
		return "", false
	}
	if !c.isHandle(c.pass.TypesInfo.TypeOf(call.Args[0])) {
		return "", false
	}
	return keyOf(call.Args[0]), true
}

// checkUses reports reads of cancelled handles inside stmt, excluding the
// sanctioned ones: re-Cancel, .Cancelled(), and assignment targets.
func (c *checker) checkUses(stmt ast.Stmt, state map[string]int) {
	exempt := map[ast.Node]bool{}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, ok := c.cancelTarget(n); ok {
				exempt[n.Args[0]] = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Cancelled" && c.isHandle(c.pass.TypesInfo.TypeOf(n.X)) {
				exempt[n.X] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				exempt[lhs] = true
			}
		}
		return true
	})
	ast.Inspect(stmt, func(n ast.Node) bool {
		if exempt[n] {
			return false
		}
		e, isExpr := n.(ast.Expr)
		if !isExpr {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		key := keyOf(e)
		if key == "" || !c.isHandle(c.pass.TypesInfo.TypeOf(e)) {
			return true
		}
		if st, tracked := state[key]; tracked && st == stateCanceled {
			c.report(e.Pos(),
				"%s is used after Cancel: the handle is stale and its event slot "+
					"may have been recycled; reschedule before reuse", key)
			return false
		}
		// A selector like pg.FaultHandle resolved here; don't re-report on
		// its embedded identifiers.
		return false
	})
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	// //chrono:allow handlecheck suppressions are filtered centrally by
	// the driver (analysis.RunCount), which also counts them.
	c.pass.Reportf(pos, format, args...)
}

// isHandle reports whether t is simclock.Handle.
func (c *checker) isHandle(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == simclockPkg && obj.Name() == "Handle"
}

// keyOf canonicalises an identifier or pure selector chain for state
// tracking; anything with calls or indexes is untracked ("").
func keyOf(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return ""
		}
		return v.Name
	case *ast.SelectorExpr:
		base := keyOf(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.ParenExpr:
		return keyOf(v.X)
	default:
		return ""
	}
}
