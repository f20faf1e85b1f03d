package analysis

// Whole-program function summaries. The analyzers are intra-procedural
// walks, but the invariants are not: "Flush under a lock" must see
// through drainLocked to the Quiesce inside it, "unclassified error"
// must know that badRequest classifies, "unbounded make" must know
// that Decoder.Count bound-checks what Decoder.Uvarint does not. The
// summaries below are computed once per load by monotone fixpoint over
// the static call graph (direct calls resolved through go/types; calls
// through interface values, function values and closures passed as
// arguments are not followed — see docs/analysis.md for what that
// means for each analyzer).

import (
	"go/ast"
	"go/token"
	"go/types"
)

type funcSummary struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	callees []*types.Func

	// blocks / acquires: non-empty means the function may, directly or
	// transitively, do the named thing. The string names the root cause
	// for diagnostics ("(*Engine).Quiesce", "net.Conn.Write", …).
	blocks   string
	acquires string
	// acquiresCluster names a cluster-class lock the function may take,
	// directly or transitively. Cluster locks block on network round
	// trips, so lockorder holds them to a stricter rule: they must be
	// outermost, never taken while anything else is held.
	acquiresCluster string

	// classifies: every error this function returns is classified (a
	// sentinel, an Is-method wrapper, or a %w wrap of one) — calling it
	// is a sanctioned way to construct an error in an errclass zone.
	classifies bool
	returnsErr bool

	// unboundedSource: result 0 carries a value decoded from raw input
	// bytes that the function did not bound-check before returning.
	unboundedSource bool

	// allocParams: indices of parameters that directly size a make (or
	// flow into a callee's allocParams position) with no intervening
	// bound enforced by the function itself — bounding is the caller's
	// job, so a tainted argument here is a tainted allocation.
	allocParams map[int]bool

	// lender caches poolescape's "returns a pooled value" derivation
	// (nil until first queried).
	lender *bool
}

func computeSummaries(prog *Program) map[*types.Func]*funcSummary {
	sums := make(map[*types.Func]*funcSummary)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &funcSummary{fn: fn, decl: fd, pkg: pkg, allocParams: make(map[int]bool)}
				s.callees = collectCallees(pkg, fd)
				sig := fn.Type().(*types.Signature)
				if res := sig.Results(); res != nil {
					for i := 0; i < res.Len(); i++ {
						if isErrorType(res.At(i).Type()) {
							s.returnsErr = true
						}
					}
				}
				sums[fn] = s
			}
		}
	}
	prog.summaries = sums // visible to the helpers below during fixpoint

	// blocks / acquires: seed with direct evidence, propagate over
	// static calls until stable.
	for _, s := range sums {
		ast.Inspect(s.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if why, ok := prog.baseBlockingCall(s.pkg, call); ok && s.blocks == "" {
				s.blocks = why
			}
			if obj, op := lockOp(s.pkg, call); obj != nil && op == opLock {
				if s.acquires == "" {
					s.acquires = objectString(obj)
				}
				if s.acquiresCluster == "" && prog.directives.lockClass[obj] == clusterClass {
					s.acquiresCluster = objectString(obj)
				}
			}
			return true
		})
	}
	propagate(sums, func(s *funcSummary) string { return s.blocks },
		func(s *funcSummary, why string) { s.blocks = why })
	propagate(sums, func(s *funcSummary) string { return s.acquires },
		func(s *funcSummary, why string) { s.acquires = why })
	propagate(sums, func(s *funcSummary) string { return s.acquiresCluster },
		func(s *funcSummary, why string) { s.acquiresCluster = why })

	// classifies: grows monotonically — a round may discover that a
	// function only returns wrappers the previous round proved.
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if s.classifies || !s.returnsErr {
				continue
			}
			if classifyingConstructor(prog, s) {
				s.classifies = true
				changed = true
			}
		}
	}

	// unboundedSource and allocParams: also monotone (more sources =>
	// more taint => more tainted returns).
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if !s.unboundedSource {
				ti := runTaint(prog, s.pkg, s.decl, nil)
				if ti.taintedReturn {
					s.unboundedSource = true
					changed = true
				}
			}
			if updateAllocParams(prog, s) {
				changed = true
			}
		}
	}
	return sums
}

// propagate runs the transitive-closure fixpoint for one string-valued
// property over the call graph.
func propagate(sums map[*types.Func]*funcSummary, get func(*funcSummary) string, set func(*funcSummary, string)) {
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if get(s) != "" {
				continue
			}
			for _, callee := range s.callees {
				cs := sums[callee]
				if cs == nil || get(cs) == "" {
					continue
				}
				set(s, get(cs))
				changed = true
				break
			}
		}
	}
}

func collectCallees(pkg *Package, fd *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeOf(pkg, call); fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// calleeOf resolves a call's static callee, or nil for calls through
// function values, closures, and conversions.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

const (
	opNone = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a mutex acquire or release and resolves
// the lock's identity (the field or package variable holding it).
func lockOp(pkg *Package, call *ast.CallExpr) (types.Object, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return nil, opNone
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || !isSyncLocker(tv.Type) {
		return nil, opNone
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return pkg.Info.Uses[recv.Sel], op
	case *ast.Ident:
		return pkg.Info.Uses[recv], op
	}
	return nil, op
}

// isSyncLocker reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isSyncLocker(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// blockingMethodNames are the engine-API method names whose callees
// block until batch work resolves: the DynEngine mutation-barrier
// class. sync.Cond.Wait and sync.WaitGroup.Wait are excluded by the
// module-receiver requirement — the par fork-join idiom is pervasive
// and safe.
var blockingMethodNames = map[string]bool{
	"Wait": true, "Flush": true, "FlushAll": true, "Quiesce": true,
}

// baseBlockingCall reports whether call is directly blocking: a
// blocking-named method on a module type, or Read/Write on a value
// implementing net.Conn.
func (prog *Program) baseBlockingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	name := sel.Sel.Name
	if blockingMethodNames[name] && fn.Pkg() != nil && prog.byPath[fn.Pkg().Path()] != nil {
		return objectString(fn), true
	}
	if name == "Read" || name == "Write" {
		if tv, ok := pkg.Info.Types[sel.X]; ok && prog.implementsNetConn(tv.Type) {
			return "net.Conn." + name, true
		}
	}
	return "", false
}

// implementsNetConn reports whether t (or *t) implements net.Conn.
func (prog *Program) implementsNetConn(t types.Type) bool {
	conn := prog.netConnType()
	if conn == nil || t == nil {
		return false
	}
	if types.Implements(t, conn) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), conn)
	}
	return false
}

var netConnSentinel = new(types.Interface) // distinguishes "not looked up" from "unavailable"

func (prog *Program) netConnType() *types.Interface {
	if prog.netConn == netConnSentinel {
		netPkg := prog.stdPackage("net")
		prog.netConn = nil
		if netPkg != nil {
			if obj := netPkg.Scope().Lookup("Conn"); obj != nil {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					prog.netConn = iface
				}
			}
		}
	}
	return prog.netConn
}

// summaryOf returns the summary for a resolved callee, if it is a
// function the program defines.
func (prog *Program) summaryOf(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	return prog.summaries[fn]
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// classifyingConstructor reports whether every error s returns is a
// classified expression — making s itself a sanctioned constructor.
// Error positions are read from the declared signature, not the
// returned expression's type: `return invalidError{err}` fills an
// error result with a concrete struct type.
func classifyingConstructor(prog *Program, s *funcSummary) bool {
	sig := s.fn.Type().(*types.Signature)
	results := sig.Results()
	errAt := make(map[int]bool)
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errAt[i] = true
		}
	}
	ok := true
	sawReturn := false
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) != results.Len() {
			// Naked return or single multi-value call: can't match
			// positions, so don't certify the function.
			ok = false
			return true
		}
		for i, res := range ret.Results {
			if !errAt[i] {
				continue
			}
			sawReturn = true
			if !prog.classifiedExpr(s.pkg, res) {
				ok = false
			}
		}
		return true
	})
	return ok && sawReturn
}

// classifiedExpr reports whether e constructs (or names) a classified
// error: nil, a package-level sentinel, a composite literal of a type
// with an Is method, a %w wrap of a classified value, or a call to a
// classifying constructor.
func (prog *Program) classifiedExpr(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pkg.Info.Types[e]; ok && tv.IsNil() {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		return isSentinelVar(pkg.Info.Uses[e])
	case *ast.SelectorExpr:
		return isSentinelVar(pkg.Info.Uses[e.Sel]) || prog.errclassField(pkg, e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return prog.classifiedExpr(pkg, e.X)
		}
	case *ast.CompositeLit:
		if tv, ok := pkg.Info.Types[e]; ok {
			return hasIsMethod(tv.Type, pkg.Types)
		}
	case *ast.CallExpr:
		fn := calleeOf(pkg, e)
		if fn == nil {
			return false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf" {
			return errorfWrapsClassified(prog, pkg, e)
		}
		if s := prog.summaryOf(fn); s != nil && s.classifies {
			return true
		}
	}
	return false
}

// isSentinelVar reports whether obj is a package-level error variable
// — the ErrInvalid/ErrCorrupt sentinel pattern.
func isSentinelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope() && isErrorType(v.Type())
}

// errclassField reports whether e selects an error field of a struct
// type marked //spatialvet:errclass. ErrClass checks every store into
// such a field, so what a read yields is classified.
func (prog *Program) errclassField(pkg *Package, e *ast.SelectorExpr) bool {
	sel := pkg.Info.Selections[e]
	return sel != nil && sel.Kind() == types.FieldVal && isErrorType(sel.Obj().Type()) &&
		prog.directives.errclassTyp[namedObj(sel.Recv())]
}

// namedObj returns the type name behind t or *t, or nil.
func namedObj(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// hasIsMethod reports whether t (or *t) defines Is(error) bool — the
// invalidError/badRequestError classification-wrapper pattern.
func hasIsMethod(t types.Type, from *types.Package) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		if obj, _, _ := types.LookupFieldOrMethod(typ, true, from, "Is"); obj != nil {
			if _, isFn := obj.(*types.Func); isFn {
				return true
			}
		}
	}
	return false
}

// errorfWrapsClassified reports whether a fmt.Errorf call both uses %w
// in its format and wraps at least one classified value (searching the
// argument trees, so append([]any{ErrCorrupt}, …) counts).
func errorfWrapsClassified(prog *Program, pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) == 0 || !formatHasWrapVerb(call.Args[0]) {
		return false
	}
	for _, arg := range call.Args[1:] {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if found {
				return false
			}
			if e, ok := n.(ast.Expr); ok && prog.classifiedExpr(pkg, e) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// formatHasWrapVerb scans a format expression (string literals, possibly
// concatenated) for %w.
func formatHasWrapVerb(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return containsWrapVerb(e.Value)
	case *ast.BinaryExpr:
		return formatHasWrapVerb(e.X) || formatHasWrapVerb(e.Y)
	}
	return false
}

func containsWrapVerb(lit string) bool {
	for i := 0; i+1 < len(lit); i++ {
		if lit[i] == '%' && lit[i+1] == 'w' {
			return true
		}
	}
	return false
}

// updateAllocParams re-derives which of s's parameters size an
// allocation; reports whether the set grew.
func updateAllocParams(prog *Program, s *funcSummary) bool {
	params := make(map[types.Object]int)
	sig := s.fn.Type().(*types.Signature)
	tparams := sig.Params()
	for i := 0; i < tparams.Len(); i++ {
		params[tparams.At(i)] = i
	}
	grew := false
	mark := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		if i, ok := params[s.pkg.Info.Uses[id]]; ok && !s.allocParams[i] {
			s.allocParams[i] = true
			grew = true
		}
	}
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if len(call.Args) > 1 && isBuiltin(s.pkg, call, "make") {
			for _, sz := range call.Args[1:] {
				mark(sz)
			}
			return true
		}
		if cs := prog.summaryOf(calleeOf(s.pkg, call)); cs != nil {
			for i := range cs.allocParams {
				if i < len(call.Args) {
					mark(call.Args[i])
				}
			}
		}
		return true
	})
	return grew
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && pkg.Info.Uses[id] == types.Universe.Lookup(name)
}
