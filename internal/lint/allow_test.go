package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestAllowPolicy pins the suppression contract on the allowpolicy fixture:
// a justified allow silences its diagnostic; a reasonless allow, a typo'd
// analyzer name and a stale allow each surface as diagnostics of their own,
// and a broken allow suppresses nothing. The fixture's deadexport allows are
// not stale here: this run has no deadexport.
func TestAllowPolicy(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/lint/testdata/src/allowpolicy/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 fixture package, got %d", len(pkgs))
	}
	diags, err := Run(pkgs[0], []*Analyzer{newDetrand(fixtureScope)})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		// BadNoReason: the reasonless allow is malformed, and the wall-clock
		// read it hoped to cover survives.
		"malformed //lint:allow: need an analyzer name and a justification",
		"time.Now (wall clock) in deterministic package",
		// BadTypo: the unknown analyzer name plus the unsuppressed finding.
		"unknown analyzer detrnd in //lint:allow",
		"os.Getpid (process identity) in deterministic package",
		// BadStale: the dead allow.
		"stale //lint:allow: no detrand diagnostic",
	}
	if len(diags) != len(wants) {
		t.Errorf("want %d diagnostics, got %d:\n%s", len(wants), len(diags), render(diags))
	}
	for _, want := range wants {
		if !containsDiag(diags, want) {
			t.Errorf("missing diagnostic containing %q:\n%s", want, render(diags))
		}
	}
	// GoodAllowed's time.Now is on line 17; its justified allow must have
	// silenced it — exactly one surviving time.Now finding (BadNoReason's).
	now := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "time.Now") {
			now++
		}
	}
	if now != 1 {
		t.Errorf("want exactly 1 surviving time.Now diagnostic (the unjustified one), got %d:\n%s", now, render(diags))
	}
}

// TestAllowPolicyDeadexport runs the deadexport pass alone over the same
// fixture: the justified deadexport allow
// silences its finding, the one that suppresses nothing is stale, and the
// detrand allows are not, since detrand did not run.
func TestAllowPolicyDeadexport(t *testing.T) {
	diags := runDeadexport(t, "./internal/lint/testdata/src/allowpolicy/a")
	if containsDiag(diags, "KeptForTests") {
		t.Errorf("allowed KeptForTests still reported:\n%s", render(diags))
	}
	stale := 0
	for _, d := range diags {
		if strings.HasPrefix(d.Message, "stale //lint:allow") {
			stale++
		}
	}
	if stale != 1 || !containsDiag(diags, "stale //lint:allow: no deadexport diagnostic") {
		t.Errorf("want exactly the one stale deadexport allow, got %d stale:\n%s", stale, render(diags))
	}
}

// TestAllowNamesSuite derives the valid //lint:allow targets from Suite: an
// allow naming any of its analyzers is accepted, and one naming an analyzer
// it lacks is reported.
func TestAllowNamesSuite(t *testing.T) {
	src := "package p\n"
	names := map[string]bool{}
	for _, a := range Suite(nil) {
		names[a.Name] = true
		src += "//lint:allow " + a.Name + " a reason\n"
	}
	if len(names) != 6 {
		t.Fatalf("Suite has %d distinct analyzer names, want 6", len(names))
	}
	src += "//lint:allow nosuch a reason\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows, broken := collectAllows(&Package{Fset: fset, Files: []*ast.File{f}})
	for _, al := range allows {
		delete(names, al.analyzer)
	}
	if len(allows) != 6 || len(names) != 0 {
		t.Errorf("accepted %d allows, and none for %v", len(allows), names)
	}
	if len(broken) != 1 || !containsDiag(broken, "unknown analyzer nosuch in //lint:allow") {
		t.Errorf("want exactly the unknown analyzer reported, got:\n%s", render(broken))
	}
}

func containsDiag(diags []Diagnostic, substr string) bool {
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
