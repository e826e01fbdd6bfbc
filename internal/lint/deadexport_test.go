package lint_test

import (
	"strings"
	"testing"

	"harl/internal/lint"
)

// runDeadexport loads the fixture packages matching pattern as one program
// and runs the deadexport pass over them, stale allows reported.
func runDeadexport(t *testing.T, pattern string) []lint.Diagnostic {
	t.Helper()
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, pattern)
	if err != nil {
		t.Fatal(err)
	}
	a := lint.NewDeadexport(pkgs)
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		d, err := lint.Run(pkg, []*lint.Analyzer{a}, lint.Options{ReportStaleAllows: true})
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, d...)
	}
	return diags
}

// TestDeadexportFixture pins the deadexport rules on a two-package program:
// dead declarations of each kind and one used only from a _test.go file are
// reported; a use from the other package (seen there through export data), a
// pointer-receiver method completing a used interface, String/Error/Unwrap,
// an allowed seam and a main package's exports are not.
func TestDeadexportFixture(t *testing.T) {
	diags := runDeadexport(t, "./internal/lint/testdata/src/deadexport/...")
	wants := []string{
		"exported func DeadFunc ",
		"exported type DeadType ",
		"exported var DeadVar ",
		"exported const DeadConst ",
		"exported func TestOnly ",
		"exported method Square.Perimeter ",
	}
	if len(diags) != len(wants) {
		t.Errorf("want %d diagnostics, got %d:\n%s", len(wants), len(diags), render(diags))
	}
	for _, want := range wants {
		if !containsDiag(diags, want) {
			t.Errorf("missing diagnostic containing %q:\n%s", want, render(diags))
		}
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "deadexport/a/a.go") {
			t.Errorf("diagnostic outside the library package: %s", d)
		}
	}
}
