package lint

import (
	"testing"
)

// fixtureScope points the analyzers at the fixture tree instead of their
// production package lists.
var fixtureScope = []string{"harl/internal/lint/testdata/..."}

func TestDetrandFixture(t *testing.T) {
	runFixture(t, newDetrand(fixtureScope), "detrand/a")
}

// TestDetrandScope pins that the analyzer stays silent outside its scope: the
// same fixture package analyzed under the production scope produces nothing.
func TestDetrandScope(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/lint/testdata/src/detrand/a")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, []*Analyzer{newDetrand(deterministicPackages)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("out-of-scope package %s still produced diagnostics: %v", pkg.Path, diags)
		}
	}
}
