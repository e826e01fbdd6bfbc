package lint

import (
	"strings"
	"testing"
)

// runDeadexport loads the fixture packages matching pattern as one program
// and runs the deadexport pass over them.
func runDeadexport(t *testing.T, pattern string) []Diagnostic {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatal(err)
	}
	a := newDeadexport(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := Run(pkg, []*Analyzer{a})
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
// an allowed seam and a main package's exports are not. Of the live names,
// a func, var and const that only their own package uses are reported by the
// second finding, even when another package's test uses one; a const of its
// package's own type, an exported type and an allowed name are not, and an
// allow on a name b uses is stale.
func TestDeadexportFixture(t *testing.T) {
	diags := runDeadexport(t, "./internal/lint/testdata/src/deadexport/...")
	const dead, local = " has no use outside _test.go files", " is used only inside its package"
	wants := []string{
		"exported func DeadFunc" + dead,
		"exported type DeadType" + dead,
		"exported var DeadVar" + dead,
		"exported const DeadConst" + dead,
		"exported func TestOnly" + dead,
		"exported method Square.Perimeter" + dead,
		"exported func LocalFunc" + local,
		"exported var LocalVar" + local,
		"exported const LocalConst" + local,
		"exported func LocalAndBTest" + local,
		"stale //lint:allow: no deadexport diagnostic",
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
