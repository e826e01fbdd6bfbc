package lint

import (
	"strings"
	"testing"
)

// fixtureScope points the analyzers at the fixture tree instead of their
// production package lists.
var fixtureScope = []string{"harl/internal/lint/testdata/..."}

func TestDetrandFixture(t *testing.T) {
	runFixture(t, newDetrand(fixtureScope), "detrand/a")
}

// TestDetrandScope pins that the analyzer stays silent outside its scope: the
// same fixture package analyzed under the production scope produces no
// detrand diagnostic, so the fixture's one justified allow is reported stale
// and nothing else is reported.
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
		diags, err := Run(pkg, []*Analyzer{newDetrand(deterministicPackages)})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 1 || !strings.HasPrefix(diags[0].Message, "stale //lint:allow: no detrand diagnostic") {
			t.Errorf("out-of-scope package %s: want only its allow reported stale, got:\n%s", pkg.Path, render(diags))
		}
	}
}
