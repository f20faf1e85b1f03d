package analysis

// PoolEscape checks the sync.Pool buffer discipline the wire/persist
// hot paths depend on: a pooled value may be used locally and returned
// by a lender (engine newRequest is the sanctioned one; the server's
// httpQueries pool lends through a plain Get), but it must not
//
//   - be stored into a struct field (a long-lived owner outliving the
//     frame the value was borrowed for),
//   - be referenced after it was Put back (the next Get may hand the
//     same memory to a concurrent frame), or
//   - be captured by a goroutine closure (the goroutine's lifetime is
//     unknowable to the borrower).
//
// The walk is source-order within one function: a use positioned after
// the Put of the same variable is a use-after-put; a Put registered by
// a defer runs at return and sanctions nothing before it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "sync.Pool-sourced values must not be stored in struct fields, " +
		"used after Put, or captured by goroutine closures",
	Run: runPoolEscape,
}

func runPoolEscape(pass *Pass) error {
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl) {
		w := &poolWalker{pass: pass,
			pooled: make(map[types.Object]bool),
			putAt:  make(map[types.Object]token.Pos)}
		ast.Inspect(decl.Body, w.visit)
		// Second pass: uses positioned after a (non-deferred) Put.
		if len(w.putAt) > 0 {
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Pkg.Info.Uses[id]
				if obj == nil {
					return true
				}
				if at, put := w.putAt[obj]; put && id.Pos() > at && !w.putArg[id] {
					pass.Reportf(id.Pos(), "pooled value %s used after Put", obj.Name())
				}
				return true
			})
		}
	})
	return nil
}

type poolWalker struct {
	pass   *Pass
	pooled map[types.Object]bool
	putAt  map[types.Object]token.Pos
	putArg map[*ast.Ident]bool // the idents inside Put calls themselves
	// deferred marks Put calls under defer: they release at return, so
	// they must not start a use-after-Put region at their lexical spot.
	deferred map[*ast.CallExpr]bool
}

func (w *poolWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// defer pool.Put(x) runs at return; it cannot precede any use.
		if w.isPoolPut(n.Call) {
			w.markPutArgs(n.Call)
			if w.deferred == nil {
				w.deferred = make(map[*ast.CallExpr]bool)
			}
			w.deferred[n.Call] = true
			return true
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) && len(n.Rhs) == 1 {
				break
			}
			rhs := n.Rhs[min(i, len(n.Rhs)-1)]
			if !w.pooledExpr(rhs) {
				continue
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if obj := objOf(w.pass.Pkg, l); obj != nil {
					w.pooled[obj] = true
				}
			case *ast.SelectorExpr:
				pos := n.Pos()
				w.pass.Reportf(pos, "sync.Pool-sourced value stored in field %s",
					fieldName(w.pass.Pkg, l))
			}
		}
	case *ast.CallExpr:
		if w.isPoolPut(n) && !w.deferred[n] {
			w.markPutArgs(n)
			for _, arg := range n.Args {
				if obj := identObj(w.pass.Pkg, arg); obj != nil {
					if _, seen := w.putAt[obj]; !seen {
						w.putAt[obj] = n.End()
					}
				}
			}
		}
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := w.pass.Pkg.Info.Uses[id]; obj != nil && w.pooled[obj] {
					w.pass.Reportf(n.Pos(), "pooled value %s captured by goroutine closure", obj.Name())
					return false
				}
				return true
			})
		}
	}
	return true
}

// pooledExpr reports whether e yields a pooled value: a
// (*sync.Pool).Get result, a call to a module lender (a function whose
// return derives from a Get), or a value derived from a pooled
// variable by dereference/slicing/assertion.
func (w *poolWalker) pooledExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.Pkg.Info.Uses[e]
		return obj != nil && w.pooled[obj]
	case *ast.StarExpr:
		return w.pooledExpr(e.X)
	case *ast.TypeAssertExpr:
		return w.pooledExpr(e.X)
	case *ast.SliceExpr:
		return w.pooledExpr(e.X)
	case *ast.CallExpr:
		if isPoolMethod(w.pass.Pkg, e, "Get") {
			return true
		}
		if s := w.pass.Prog.summaryOf(calleeOf(w.pass.Pkg, e)); s != nil && isLender(w.pass.Prog, s) {
			return true
		}
	}
	return false
}

func (w *poolWalker) isPoolPut(call *ast.CallExpr) bool {
	return isPoolMethod(w.pass.Pkg, call, "Put")
}

func (w *poolWalker) markPutArgs(call *ast.CallExpr) {
	if w.putArg == nil {
		w.putArg = make(map[*ast.Ident]bool)
	}
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			w.putArg[id] = true
		}
		return true
	})
}

// isPoolMethod matches name called on a sync.Pool value (any selector
// depth: bufPool.Get, e.scratch.Get).
func isPoolMethod(pkg *Package, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// lenderCache avoids re-deriving lender-ness; a lender is a function
// with a return statement whose expression is directly pool-derived
// (Get call, or a local that a Get flowed into).
func isLender(prog *Program, s *funcSummary) bool {
	if s.lender != nil {
		return *s.lender
	}
	// Seed pessimistically before walking so recursive call chains
	// terminate (a function is not a lender by virtue of calling
	// itself).
	seed := false
	s.lender = &seed
	discard := &Analyzer{Name: "poolescape"}
	local := &poolWalker{pass: &Pass{Pkg: s.pkg, Prog: prog, Analyzer: discard, diags: &[]Diagnostic{}},
		pooled: make(map[types.Object]bool),
		putAt:  make(map[types.Object]token.Pos)}
	result := false
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			local.visit(n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if local.pooledExpr(res) || local.pooledExpr(addrOperand(res)) {
					result = true
				}
			}
		}
		return true
	})
	s.lender = &result
	return result
}

// addrOperand unwraps &x so `return &s` lenders resolve.
func addrOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

func objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func identObj(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[e]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return identObj(pkg, e.X)
		}
	}
	return nil
}

func fieldName(pkg *Package, sel *ast.SelectorExpr) string {
	if obj := pkg.Info.Uses[sel.Sel]; obj != nil {
		return objectString(obj)
	}
	return sel.Sel.Name
}
