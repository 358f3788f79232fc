// Command simlint mechanizes the simulator's determinism discipline.
//
// Every headline guarantee in this repo — bit-for-bit same-seed
// ServiceReport equality, byte-identical Chrome traces across
// Replay/ReplayStream — rests on conventions that used to
// live only in review comments: simulated code reads the simulated
// clock, random streams are scoped per entity, concurrency goes
// through the kernel, and nothing observable is produced in map
// iteration order. simlint turns each convention into an analyzer:
//
//	walltime    no time.Now/Sleep/... outside the simulation kernel
//	globalrand  no process-global math/rand, no shared/constant seeds
//	kernelgo    no raw go statements in simulation-domain packages
//	maporder    no order-sensitive work inside range-over-map bodies
//	spanend     every span started is ended (or handed off)
//	globalcache no process-global caches (package-level sync.Map or
//	            runtime-written maps) in simulation-domain packages
//
// Findings are suppressed only by a reasoned directive on the line or
// the line above:
//
//	//simlint:allow <analyzer> — <reason>
//
// A directive without a reason, naming an unknown analyzer, or
// suppressing nothing is itself an error, so the suppression inventory
// stays honest.
//
// Usage:
//
//	go run ./tools/simlint [-v] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 1 if any finding survives suppression.
package main

import (
	"flag"
	"fmt"
	"os"

	"fsdinference/tools/simlint/analysis"
	"fsdinference/tools/simlint/loader"
	"fsdinference/tools/simlint/passes/globalcache"
	"fsdinference/tools/simlint/passes/globalrand"
	"fsdinference/tools/simlint/passes/kernelgo"
	"fsdinference/tools/simlint/passes/maporder"
	"fsdinference/tools/simlint/passes/spanend"
	"fsdinference/tools/simlint/passes/walltime"
)

// Analyzers is the full simlint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	walltime.Analyzer,
	globalrand.Analyzer,
	kernelgo.Analyzer,
	maporder.Analyzer,
	spanend.Analyzer,
	globalcache.Analyzer,
}

func main() {
	verbose := flag.Bool("v", false, "print each package as it is checked")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-v] [packages]\n\nAnalyzers:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nSuppress with: //simlint:allow <analyzer> — <reason>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	l := loader.New()
	pkgs, err := l.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "simlint: checking %s\n", pkg.Path)
		}
		diags, err := analysis.RunAnalyzers(Analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Path, pkg.TypesInfo, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
