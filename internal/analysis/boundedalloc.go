package analysis

// BoundedAlloc checks the "allocation bounded by payload" invariant of
// the wire and persist decode paths: a length decoded from network or
// disk bytes (binary.Uvarint, byte-order reads, or a module function
// summarized as an unbounded decode source) must be compared against
// something — the remaining payload, a configured limit — before it
// sizes a make. binfmt.Decoder.Count is the sanctioned pattern and is
// proven bounded by its own body, so values it returns are never
// tainted; the raw Decoder.Uvarint is a source. A miss here is the
// classic length-prefix bomb: a 5-byte frame declaring a 2^60 element
// count allocates unbounded memory before validation fails.

import (
	"go/ast"
	"go/token"
)

var BoundedAlloc = &Analyzer{
	Name: "boundedalloc",
	Doc: "make/append sized by a value decoded from input bytes requires a " +
		"preceding bound check",
	Run: runBoundedAlloc,
}

func runBoundedAlloc(pass *Pass) error {
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl) {
		runTaint(pass.Prog, pass.Pkg, decl, func(pos token.Pos, what string) {
			pass.Reportf(pos,
				"allocation sized by %s, decoded from input bytes with no preceding bound check",
				what)
		})
	})
	return nil
}
