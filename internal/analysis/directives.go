package analysis

// Directive comments tie the analyzers to the code they check:
//
//	//spatialvet:lockclass <class>
//	    On a sync.Mutex/RWMutex field or package variable. Names the
//	    lock's class in the repo's lock order. The only ordered class
//	    today is "routing" (server/pool routing tables): while a
//	    routing lock is held, no other lock may be acquired — the
//	    PR 3 /metrics deadlock class. Other classes ("shard", …) are
//	    documentation; lockorder leaves them unconstrained.
//
//	//spatialvet:errclass
//	    On a function declaration. Marks a classification boundary:
//	    errors this function constructs must be classified (a typed
//	    sentinel, a sentinel-wrapping %w Errorf, or a classifying
//	    constructor), because they decide a client-visible status
//	    (HTTP 400-vs-500, wire status).
//	    On a struct type declaration. Marks a carrier of classified
//	    errors: every error stored in one of its error fields must be
//	    classified, so a read of such a field counts as classified.
//
//	//spatialvet:ignore <analyzer> -- <justification>
//	    On (or immediately above) the offending line. Suppresses that
//	    analyzer's findings there. The justification is mandatory —
//	    an ignore without one is itself a finding.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const directivePrefix = "//spatialvet:"

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type directiveSet struct {
	lockClass   map[types.Object]string // mutex field/var -> lock class
	errclassFns map[types.Object]bool   // functions marked as classification boundaries
	errclassTyp map[types.Object]bool   // struct types marked as carriers of classified errors
	ignores     map[ignoreKey]string    // suppression -> justification
	malformed   []Diagnostic
}

// suppressed reports whether d carries an ignore directive for its
// analyzer on its own line or the line above.
func (ds *directiveSet) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if _, ok := ds.ignores[ignoreKey{pos.Filename, line, d.Analyzer}]; ok {
			return true
		}
	}
	return false
}

func collectDirectives(prog *Program) *directiveSet {
	ds := &directiveSet{
		lockClass:   make(map[types.Object]string),
		errclassFns: make(map[types.Object]bool),
		errclassTyp: make(map[types.Object]bool),
		ignores:     make(map[ignoreKey]string),
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ds.collectIgnores(prog.Fset, file, prog.isRoot(pkg.Path))
			ds.collectDecls(pkg, file)
		}
	}
	return ds
}

// collectIgnores scans every comment in the file for ignore
// directives; they attach by line, not by declaration. Malformed
// directives are reported only for root packages — dependency-only
// packages are not vetted.
func (ds *directiveSet) collectIgnores(fset *token.FileSet, file *ast.File, reportMalformed bool) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix+"ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			name, why, found := strings.Cut(strings.TrimSpace(rest), "--")
			name = strings.TrimSpace(name)
			why = strings.TrimSpace(why)
			if name == "" || !found || why == "" {
				if !reportMalformed {
					continue
				}
				ds.malformed = append(ds.malformed, Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "spatialvet",
					Message:  "spatialvet: ignore directive requires an analyzer name and a justification: //spatialvet:ignore <analyzer> -- <why>",
				})
				continue
			}
			ds.ignores[ignoreKey{pos.Filename, pos.Line, name}] = why
		}
	}
}

// collectDecls walks declarations for lockclass and errclass
// directives, which attach to the declared object.
func (ds *directiveSet) collectDecls(pkg *Package, file *ast.File) {
	bind := func(names []*ast.Ident, class string) {
		for _, name := range names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				ds.lockClass[obj] = class
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, f := range n.Fields.List {
				if class, ok := directiveArg(f.Doc, f.Comment, "lockclass"); ok {
					bind(f.Names, class)
				}
			}
		case *ast.GenDecl:
			if n.Tok == token.TYPE {
				for _, spec := range n.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, ok := directiveArg(n.Doc, ts.Doc, "errclass"); ok {
						if obj := pkg.Info.Defs[ts.Name]; obj != nil {
							ds.errclassTyp[obj] = true
						}
					}
				}
			}
			if n.Tok != token.VAR {
				return true
			}
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if class, ok := directiveArg(n.Doc, vs.Comment, "lockclass"); ok {
					bind(vs.Names, class)
				} else if class, ok := directiveArg(vs.Doc, vs.Comment, "lockclass"); ok {
					bind(vs.Names, class)
				}
			}
		case *ast.FuncDecl:
			if _, ok := directiveArg(n.Doc, nil, "errclass"); ok {
				if obj := pkg.Info.Defs[n.Name]; obj != nil {
					ds.errclassFns[obj] = true
				}
			}
		}
		return true
	})
}

// directiveArg finds "//spatialvet:<verb> [arg]" in either comment
// group and returns the trimmed argument.
func directiveArg(doc, comment *ast.CommentGroup, verb string) (string, bool) {
	for _, cg := range []*ast.CommentGroup{doc, comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, directivePrefix+verb); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// objectString names an object for diagnostics: Pkg.Type.field or
// Pkg.Func, short enough to read in one line.
func objectString(obj types.Object) string {
	if obj == nil {
		return "<unknown>"
	}
	name := obj.Name()
	if pkg := obj.Pkg(); pkg != nil {
		name = pkg.Name() + "." + name
	}
	return name
}
