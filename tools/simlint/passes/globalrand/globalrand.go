// Package globalrand polices randomness scoping. The determinism
// contract requires every random stream to be owned by exactly one
// simulated entity and seeded from that entity's identity, so that
// replaying a trace whole or as a stream, alone or beside other
// traffic, consumes identical streams per entity. Three rules:
//
//  1. Package-level math/rand functions (rand.Intn, rand.Float64,
//     rand.Shuffle, ...) draw from the process-global source and are
//     banned everywhere — their output depends on every other caller
//     in the binary.
//
//  2. A package-level variable holding a *rand.Rand or rand.Source is
//     a service-wide stream shared by every entity that touches it.
//     Its draws then depend on how every entity's calls interleave, so
//     one entity's outcome changes when unrelated traffic is added.
//
//  3. Inside simulation-domain packages, rand.NewSource with a
//     constant literal seed is flagged: two entities constructed from
//     the same literal share one stream by accident. Seeds must be
//     derived from per-entity identity (cfg.Seed, base seed + entity
//     index, ...). Host-side tools may use literal seeds freely.
package globalrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"fsdinference/tools/simlint/analysis"
	"fsdinference/tools/simlint/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc:  "forbid the process-global math/rand source and non-per-entity seeding",
	Run:  run,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// constructors are the math/rand functions that build scoped sources
// rather than drawing from the global one.
var constructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewChaCha8": true, "NewPCG": true}

func run(pass *analysis.Pass) error {
	simDomain := lintutil.IsSimDomain(pass.Path)
	for _, f := range pass.Files {
		lintutil.Walk(f, func(n ast.Node, parents []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			pkg, name, ok := lintutil.PkgFunc(pass.TypesInfo, call)
			if !ok || !isRandPkg(pkg) {
				return
			}
			if !constructors[name] {
				// Rule 1: everything else at package level draws from
				// the global source.
				pass.Reportf(call.Pos(), "rand.%s draws from the process-global source; use a per-entity *rand.Rand (rand.New(rand.NewSource(seed)))", name)
				return
			}
			if inPackageVar(parents) {
				// Rule 2. Report only the outermost constructor so
				// rand.New(rand.NewSource(1)) yields one finding.
				if !hasConstructorAncestor(pass, parents) {
					pass.Reportf(call.Pos(), "package-level rand.%s: a service-wide random source is shared by every entity and couples their outcomes; scope the source per entity", name)
				}
				return
			}
			if simDomain && name == "NewSource" && len(call.Args) == 1 && isConstSeed(pass.TypesInfo, call.Args[0]) {
				// Rule 3: constant seeds inside the simulation.
				pass.Reportf(call.Pos(), "rand.NewSource with a constant seed: derive the seed from per-entity identity so distinct entities get distinct streams")
			}
		})
	}
	return nil
}

// inPackageVar reports whether the node whose ancestor stack is
// parents sits inside a package-level var declaration.
func inPackageVar(parents []ast.Node) bool {
	for i, p := range parents {
		if gd, ok := p.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			if i >= 1 {
				if _, isFile := parents[i-1].(*ast.File); isFile {
					return true
				}
			}
		}
	}
	return false
}

// hasConstructorAncestor reports whether any enclosing call is itself
// a math/rand constructor.
func hasConstructorAncestor(pass *analysis.Pass, parents []ast.Node) bool {
	for _, p := range parents {
		if c, ok := p.(*ast.CallExpr); ok {
			if pkg, name, ok := lintutil.PkgFunc(pass.TypesInfo, c); ok && isRandPkg(pkg) && constructors[name] {
				return true
			}
		}
	}
	return false
}

// isConstSeed reports whether e is a compile-time constant built from
// bare literals. A named constant (defaultSeed) or any variable in the
// expression means the seed was a deliberate, greppable choice —
// possibly still shared, but visibly so; bare literals (42, 1<<20+7,
// int64(3)) are the accident this rule hunts.
func isConstSeed(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	named := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		switch info.Uses[id].(type) {
		case *types.Const, *types.Var:
			named = true
		}
		return true
	})
	return !named
}
