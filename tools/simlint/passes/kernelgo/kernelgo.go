// Package kernelgo bans raw go statements inside simulation-domain
// packages. Simulated concurrency must be expressed as kernel
// processes (sim.Kernel.Go / GoAfter): the kernel runs exactly one
// process at a time and schedules wakeups in deterministic order, so
// a raw goroutine that touches simulated state races the kernel's
// single-threaded world and can reorder observable events between
// runs.
//
// The kernel itself (internal/sim) is exempt — implementing
// cooperative processes on top of goroutines is its whole job — as
// are host-side trees (cmd/, tools/, examples/), which run on the
// real machine. Sim-domain code has no raw goroutine today; one that
// genuinely needs a host-side goroutine (e.g. fanning out independent
// kernels, each with its own sealed state) must say why with
// //simlint:allow kernelgo.
package kernelgo

import (
	"go/ast"

	"fsdinference/tools/simlint/analysis"
	"fsdinference/tools/simlint/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "kernelgo",
	Doc:  "forbid raw go statements in simulation-domain packages; concurrency goes through Kernel.Go/GoAfter",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !lintutil.IsSimDomain(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw go statement in simulation-domain code: run simulated work as a kernel process (Kernel.Go/GoAfter)")
			}
			return true
		})
	}
	return nil
}
