package analysis

// The decode-taint walk behind boundedalloc and the unboundedSource
// summary. A value is tainted when it was decoded from raw input bytes
// (binary.Uvarint and friends, or a module function summarized as an
// unbounded source) and has not yet appeared in a comparison. Any
// comparison mentioning the value counts as its bound check — the walk
// is branch-insensitive (statements are processed in source order, not
// control-flow order), so this deliberately over-trusts checks to keep
// false positives near zero on real decode loops.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type taintInfo struct {
	taintedReturn bool
}

// runTaint walks one function. When report is non-nil it is invoked at
// every allocation sized by a tainted value.
func runTaint(prog *Program, pkg *Package, decl *ast.FuncDecl, report func(pos token.Pos, what string)) taintInfo {
	w := &taintWalker{prog: prog, pkg: pkg, report: report,
		tainted: make(map[types.Object]bool), done: make(map[ast.Node]bool)}
	ast.Inspect(decl.Body, w.visit)
	return w.info
}

type taintWalker struct {
	prog    *Program
	pkg     *Package
	report  func(pos token.Pos, what string)
	tainted map[types.Object]bool
	done    map[ast.Node]bool
	info    taintInfo
}

func (w *taintWalker) visit(n ast.Node) bool {
	if n == nil || w.done[n] {
		return !w.done[n]
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n)
	case *ast.IfStmt:
		// Process the init statement before the condition clears
		// anything: `if n, _ := decode(p); n > lim {` must taint n
		// first, then sanitize it.
		if a, ok := n.Init.(*ast.AssignStmt); ok {
			w.assign(a)
			w.done[a] = true
		}
		w.clearComparisons(n.Cond)
	case *ast.ForStmt:
		w.clearComparisons(n.Cond)
	case *ast.SwitchStmt:
		w.clearIdents(n.Tag)
	case *ast.CallExpr:
		w.checkAlloc(n)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if w.taintedExpr(res) {
				w.info.taintedReturn = true
			}
		}
	}
	return true
}

func (w *taintWalker) assign(a *ast.AssignStmt) {
	set := func(lhs ast.Expr, tainted bool) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := w.pkg.Info.Defs[id]
		if obj == nil {
			obj = w.pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if tainted {
			w.tainted[obj] = true
		} else {
			delete(w.tainted, obj)
		}
	}
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		// Multi-value call: only result 0 of a source carries taint.
		call, _ := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
		src := call != nil && w.sourceCall(call)
		for i, lhs := range a.Lhs {
			set(lhs, src && i == 0)
		}
		return
	}
	for i, lhs := range a.Lhs {
		if i < len(a.Rhs) {
			set(lhs, w.taintedExpr(a.Rhs[i]))
		}
	}
}

// sourceCall reports whether call's first result is a value decoded
// from raw input without an internal bound check.
func (w *taintWalker) sourceCall(call *ast.CallExpr) bool {
	fn := calleeOf(w.pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "encoding/binary" {
		switch fn.Name() {
		case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
			"Uint16", "Uint32", "Uint64":
			return true
		}
		return false
	}
	s := w.prog.summaryOf(fn)
	return s != nil && s.unboundedSource
}

func (w *taintWalker) taintedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pkg.Info.Uses[e]
		return obj != nil && w.tainted[obj]
	case *ast.CallExpr:
		if tv, ok := w.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return w.taintedExpr(e.Args[0]) // conversion: int(n)
		}
		return w.sourceCall(e)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.SHL, token.SHR, token.AND, token.OR, token.XOR:
			return w.taintedExpr(e.X) || w.taintedExpr(e.Y)
		}
	case *ast.UnaryExpr:
		return w.taintedExpr(e.X)
	}
	return false
}

// clearComparisons sanitizes every identifier that appears inside a
// comparison in cond.
func (w *taintWalker) clearComparisons(cond ast.Expr) {
	if cond == nil {
		return
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			w.clearIdents(be.X)
			w.clearIdents(be.Y)
		}
		return true
	})
}

func (w *taintWalker) clearIdents(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pkg.Info.Uses[id]; obj != nil {
				delete(w.tainted, obj)
			}
		}
		return true
	})
}

// checkAlloc reports allocations sized by tainted values: the make
// builtin, and calls whose callee passes a parameter straight into a
// make (allocParams).
func (w *taintWalker) checkAlloc(call *ast.CallExpr) {
	if w.report == nil {
		return
	}
	if len(call.Args) > 1 && isBuiltin(w.pkg, call, "make") {
		for _, sz := range call.Args[1:] {
			if w.taintedExpr(sz) {
				w.report(sz.Pos(), types.ExprString(sz))
			}
		}
		return
	}
	fn := calleeOf(w.pkg, call)
	if s := w.prog.summaryOf(fn); s != nil {
		for i := range s.allocParams {
			if i < len(call.Args) && w.taintedExpr(call.Args[i]) {
				w.report(call.Args[i].Pos(), types.ExprString(call.Args[i])+" (sizes an allocation in "+objectString(fn)+")")
			}
		}
	}
}
