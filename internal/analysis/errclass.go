package analysis

// ErrClass checks the error-classification contract behind the HTTP
// 400-vs-500 split and the binary protocol's wire status (the PR 6
// contract): a function marked //spatialvet:errclass sits on a
// classification boundary, so every error it constructs must be
// classified — a package sentinel, an Is-method wrapper type, a %w
// wrap of a classified value, or a call to a classifying constructor
// (server.badRequest, engine.invalid, binfmt's Format.Corruptf, …). A
// bare fmt.Errorf or errors.New in such a function is exactly the bug
// that made valid-but-unknown register requests come back as 500s:
// errStatus cannot classify what carries no type.
//
// A struct type marked //spatialvet:errclass carries classified errors
// (binfmt.Format holds the sentinel each package's frames wrap): every
// store into one of its error fields, in a literal or an assignment,
// must be classified, and in exchange a read of such a field counts as
// classified everywhere.

import (
	"go/ast"
	"go/types"
)

var ErrClass = &Analyzer{
	Name: "errclass",
	Doc: "functions marked //spatialvet:errclass must classify every error " +
		"they construct (sentinel, Is-method wrapper, or %w wrap thereof)",
	Run: runErrClass,
}

func runErrClass(pass *Pass) error {
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl) {
		fnObj := pass.Pkg.Info.Defs[decl.Name]
		if fnObj == nil || !pass.Prog.directives.errclassFns[fnObj] {
			return
		}
		checkErrClass(pass, decl.Body, false, fnObj.Name())
	})
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkCarrierLit(pass, n)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if ok && len(n.Rhs) == len(n.Lhs) && pass.Prog.errclassField(pass.Pkg, sel) {
						checkCarried(pass, n.Rhs[i], sel.Sel.Name, pass.Pkg.Info.Selections[sel].Recv())
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkCarrierLit checks the error fields a composite literal of an
// errclass struct type sets.
func checkCarrierLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Pkg.Info.Types[lit]
	if !ok || !pass.Prog.directives.errclassTyp[namedObj(tv.Type)] {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		field, val := (*types.Var)(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				field, _ = pass.Pkg.Info.Uses[id].(*types.Var)
			}
			val = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field != nil && isErrorType(field.Type()) {
			checkCarried(pass, val, field.Name(), tv.Type)
		}
	}
}

// checkCarried reports val, stored into the error field name of an
// errclass type, unless it is classified.
func checkCarried(pass *Pass, val ast.Expr, name string, typ types.Type) {
	if !pass.Prog.classifiedExpr(pass.Pkg, val) {
		pass.Reportf(val.Pos(), "unclassified error stored in field %s of errclass type %s",
			name, objectString(namedObj(typ)))
	}
}

// checkErrClass walks a body looking for raw error constructors.
// sanctioned is true inside the arguments of a classifying constructor
// — badRequest(fmt.Errorf(...)) is the approved wrapping idiom.
func checkErrClass(pass *Pass, n ast.Node, sanctioned bool, fname string) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pass.Pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path, name := fn.Pkg().Path(), fn.Name()
		rawErrorf := path == "fmt" && name == "Errorf"
		rawNew := path == "errors" && name == "New"
		if rawErrorf || rawNew {
			if !sanctioned && !pass.Prog.classifiedExpr(pass.Pkg, call) {
				pass.Reportf(call.Pos(),
					"unclassified %s.%s in classification boundary %s (wrap with a "+
						"classified sentinel or constructor so errStatus/wireStatus can map it)",
					path, name, fname)
			}
			return true
		}
		if s := pass.Prog.summaryOf(fn); s != nil && s.classifies {
			// Everything under a classifying constructor is sanctioned;
			// recurse manually and prune this subtree.
			for _, arg := range call.Args {
				checkErrClass(pass, arg, true, fname)
			}
			return false
		}
		return true
	})
}
