package lint

import (
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runFixture runs an analyzer against a fixture package under testdata/src,
// checking reported diagnostics against `// want "substring"`
// annotations — the same contract as golang.org/x/tools/go/analysis/
// analysistest, rebuilt on the stdlib-only loader.
//
// A fixture is an ordinary compiling package (the go tool ignores testdata
// directories when expanding ./..., but loads them fine when named
// explicitly). Each line expected to trigger a diagnostic carries a trailing
//
//	// want "message substring"
//
// comment (several quoted strings for several diagnostics on one line).
// Lines with a //lint:allow suppression carry no want — their absence from
// the diagnostic set is exactly what proves the suppression works.
//
// Every mismatch between diagnostics and want annotations is a test error.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs := loadFixture(t, fixture)
	for _, pkg := range pkgs {
		diags, err := Run(pkg, []*Analyzer{a})
		if err != nil {
			t.Fatalf("Run(%s): %v", pkg.Path, err)
		}
		checkWants(t, pkg, diags)
	}
}

func loadFixture(t *testing.T, fixture string) []*Package {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgDir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(root, filepath.Join(pkgDir, "testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pattern := "./" + filepath.ToSlash(rel)
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", fixture)
	}
	return pkgs
}

type want struct {
	pos     token.Position
	substr  string
	matched bool
}

func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.pos.Filename, w.pos.Line, w.substr)
		}
	}
}

func matchWant(wants []*want, d Diagnostic) *want {
	for _, w := range wants {
		if w.matched || w.pos.Filename != d.Pos.Filename || w.pos.Line != d.Pos.Line {
			continue
		}
		if strings.Contains(d.Message, w.substr) {
			return w
		}
	}
	return nil
}

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(rest) {
					s, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want annotation %s: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &want{pos: pos, substr: s})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b c"` into its quoted fields.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, `"`) {
			return out
		}
		end := 1
		for end < len(s) && s[end] != '"' {
			if s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(s) {
			out = append(out, s)
			return out
		}
		out = append(out, s[:end+1])
		s = s[end+1:]
	}
}
