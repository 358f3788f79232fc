// Package globalcache bans process-global caches in simulation-domain
// packages. A simulated function invocation must not depend on host
// memory left behind by earlier invocations: every input, staging
// artifact and result belongs to the request, deployment or service
// that made it. A package-level cache breaks that ownership — its
// entries outlive every Service, are shared by every replay in the
// process, and, when keyed by pointer, hand one request's result to
// another whose matrix reuses a collected address or a refilled buffer.
// Two shapes are flagged:
//
//  1. A package-level sync.Map (or *sync.Map) variable. It exists only
//     to be written concurrently at runtime.
//
//  2. A package-level map variable that some function writes by index
//     assignment (m[k] = v, m[k]++), delete or clear. Read-only catalogs
//     initialised by a composite literal stay clean.
//
// Host-side trees (cmd/, tools/, examples/) and the kernel are exempt.
package globalcache

import (
	"go/ast"
	"go/token"
	"go/types"

	"fsdinference/tools/simlint/analysis"
	"fsdinference/tools/simlint/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "globalcache",
	Doc:  "forbid process-global caches (package-level sync.Map, runtime-written package-level maps) in simulation-domain packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !lintutil.IsSimDomain(pass.Path) {
		return nil
	}
	// maps holds every package-level map variable in declaration order.
	var maps []*ast.Ident
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					switch {
					case isSyncMap(obj.Type()):
						pass.Reportf(name.Pos(), "package-level sync.Map %s is a process-global cache: its entries outlive every Service and leak between requests; give the state an owner (request, Deployment or Service)", name.Name)
					case isMap(obj.Type()):
						maps = append(maps, name)
					}
				}
			}
		}
	}
	if len(maps) == 0 {
		return nil
	}
	writers := make(map[types.Object]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				for _, target := range writtenMaps(pass.TypesInfo, n) {
					if obj := pass.TypesInfo.Uses[target]; obj != nil && writers[obj] == "" {
						writers[obj] = fd.Name.Name
					}
				}
				return true
			})
		}
	}
	for _, name := range maps {
		if fn := writers[pass.TypesInfo.Defs[name]]; fn != "" {
			pass.Reportf(name.Pos(), "package-level map %s is written at runtime (in %s): a process-global cache outlives every Service and leaks between requests; give the state an owner (request, Deployment or Service)", name.Name, fn)
		}
	}
	return nil
}

// writtenMaps returns the identifiers of the maps node n writes in place:
// index assignments and increments, delete(m, k) and clear(m).
func writtenMaps(info *types.Info, n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	indexed := func(e ast.Expr) {
		if ix, ok := e.(*ast.IndexExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok {
				out = append(out, id)
			}
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			indexed(lhs)
		}
	case *ast.IncDecStmt:
		indexed(n.X)
	case *ast.CallExpr:
		fn, ok := n.Fun.(*ast.Ident)
		if !ok || len(n.Args) == 0 {
			break
		}
		if b, ok := info.Uses[fn].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
			if id, ok := n.Args[0].(*ast.Ident); ok {
				out = append(out, id)
			}
		}
	}
	return out
}

func isSyncMap(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Map"
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}
