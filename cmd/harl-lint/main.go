// Command harl-lint runs the determinism and wire-contract lint suite
// (internal/lint) over the module. It takes no flags or arguments: it loads
// every package of ./... once and runs all six analyzers over them, so the
// whole-program deadexport pass always sees every use.
//
//	go run ./cmd/harl-lint
//
// Each diagnostic that survives suppression goes to stderr, and the command
// exits 2 when there is any.
package main

import (
	"fmt"
	"os"

	"harl/internal/lint"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: harl-lint (no flags or arguments: it lints the whole module)")
		os.Exit(1)
	}
	os.Exit(run())
}

func run() int {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	analyzers := lint.Suite(pkgs)
	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "harl-lint: %d diagnostic(s)\n", found)
		return 2
	}
	return 0
}
