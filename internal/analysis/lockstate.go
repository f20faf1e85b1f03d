package analysis

// The shared intra-procedural lock tracker behind lockorder and
// waitunderlock. The walk is source-order: a Lock pushes, an Unlock pops
// its lock, a deferred Unlock holds to the end of the function. A block
// or switch/select case ending in a return or a panic is walked on a
// copy of the held set, so after `if x { mu.Unlock(); return }` mu is
// still held; any other branch counts as taken (what it releases counts
// as released after it, what it takes as held). Function literals are
// walked inline at their definition point, a return in one leaving the
// literal: the balanced Lock/Unlock bodies of deferred publish closures
// cancel out, and their lock usage still contributes to the enclosing
// function's summary.

import (
	"go/ast"
	"go/types"
	"slices"
)

type heldLock struct {
	obj   types.Object // the mutex field or package variable
	class string       // its //spatialvet:lockclass, "" if unclassified
}

// lockEvent is one call site presented to an analyzer together with
// the locks held when control reaches it. acquired is non-nil when the
// call itself is a Lock/RLock (held excludes it at that point).
type lockEvent struct {
	call     *ast.CallExpr
	acquired *heldLock
	held     []heldLock
}

// walkLockState drives visit over every call in decl with the tracked
// lock state.
func walkLockState(prog *Program, pkg *Package, decl *ast.FuncDecl, visit func(ev lockEvent)) {
	var held []heldLock
	skip := make(map[ast.Node]bool)
	var open []ast.Node // the nodes being walked, innermost last
	saved := make(map[ast.Node][]heldLock)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil { // leaving the innermost open node
			if s, ok := saved[open[len(open)-1]]; ok {
				held = s
			}
			open = open[:len(open)-1]
			return true
		}
		open = append(open, n)
		if leavesFunc(pkg, n) {
			saved[n] = slices.Clone(held)
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at return: the lock stays held
			// for the rest of the walk, so the release is dropped.
			if obj, op := lockOp(pkg, n.Call); obj != nil && op == opUnlock {
				skip[n.Call] = true
			}
		case *ast.CallExpr:
			if skip[n] {
				return true
			}
			obj, op := lockOp(pkg, n)
			switch op {
			case opLock:
				hl := heldLock{obj: obj, class: prog.directives.lockClass[obj]}
				visit(lockEvent{call: n, acquired: &hl, held: held})
				held = append(held, hl)
			case opUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].obj == obj {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			default:
				visit(lockEvent{call: n, held: held})
			}
		}
		return true
	})
}

// leavesFunc reports whether n is a block or a switch/select case whose
// last statement leaves the function: a return or a panic call.
func leavesFunc(pkg *Package, n ast.Node) bool {
	var body []ast.Stmt
	switch n := n.(type) {
	case *ast.BlockStmt:
		body = n.List
	case *ast.CaseClause:
		body = n.Body
	case *ast.CommClause:
		body = n.Body
	}
	if len(body) == 0 {
		return false
	}
	switch last := body[len(body)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		return ok && isBuiltin(pkg, call, "panic")
	}
	return false
}

// funcDecls iterates the package's function declarations with bodies.
func funcDecls(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
