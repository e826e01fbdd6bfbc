package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadSkipsTestFiles pins the invariant the analyzers rely on to leave
// tests alone: Load hands them no _test.go file. The deadexport fixture has a
// test file beside each of its two packages, so a loader that read test files
// would return one here.
func TestLoadSkipsTestFiles(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a/a_test.go", "b/b_test.go"} {
		if _, err := os.Stat(filepath.Join("testdata", "src", "deadexport", name)); err != nil {
			t.Fatalf("fixture test file missing, the check below would prove nothing: %v", err)
		}
	}
	pkgs, err := Load(root, "./internal/lint/testdata/src/deadexport/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("want the fixture's 2 packages, got %d", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if name := pkg.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("Load returned test file %s in %s", name, pkg.Path)
			}
		}
	}
}

// TestScopesNameRealPackages pins that every entry of the analyzers'
// production scopes (the base of a "prefix/..." entry) is a package of the
// module, so deleting or moving a package cannot leave an entry that checks
// nothing.
func TestScopesNameRealPackages(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	scopes := [][]string{deterministicPackages, persistencePackages, handlerPackages, orderSensitivePackages, closePackages, moduleScope}
	for _, scope := range scopes {
		for _, entry := range scope {
			if base, _ := strings.CutSuffix(entry, "/..."); !loaded[base] {
				t.Errorf("scope entry %q names no package Load(root, \"./...\") returns", entry)
			}
		}
	}
}
