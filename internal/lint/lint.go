// Package lint is the determinism and wire-contract lint suite of the HARL
// reproduction: custom static analyzers that mechanically enforce the
// load-bearing conventions the regression suites only catch after the fact —
// the workers=1 ≡ workers=N byte-identical-journal contract, the atomic-write
// rules of the persistence packages, and the one-error-envelope v1 API
// contract — plus one whole-program pass, deadexport, that reports exported
// declarations nothing outside tests uses. cmd/harl-lint loads the module
// once (Load) and runs all six (Suite) over every package of it.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer / Pass / Diagnostic) so analyzers port to the upstream
// framework mechanically, but it is built on the standard library alone:
// packages are parsed with go/parser and type-checked with go/types against
// compiler export data (see load.go), so the suite needs no third-party
// modules — a hard constraint of this build environment. Only a package's
// non-test files are loaded: the contracts guard production code paths, and
// tests may use wall clocks, ad-hoc writes and unchecked closes freely.
//
// Suppressions: a diagnostic is silenced only by an explicit
//
//	//lint:allow <analyzer> <reason>
//
// comment on the offending line or the line directly above it. The reason is
// mandatory — an allow without one is itself a diagnostic — and an allow that
// suppresses nothing in a run of its analyzer is reported as stale, so the
// tree can never accumulate unexplained or dead suppressions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one lint pass: a name (the key allow comments and
// diagnostics carry), one-line documentation, and the Run function applied to
// each package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass connects one Analyzer run to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Path     string // import path

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is a loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies the analyzers to one package, filters the findings through the
// package's //lint:allow comments, and returns the surviving diagnostics
// sorted by position. Malformed allow comments (missing analyzer or reason)
// and allows for one of these analyzers that matched nothing are reported as
// diagnostics themselves and cannot be suppressed. Only allows naming an
// analyzer of this run can be stale: one for an analyzer that did not run is
// not evidence.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}

	allows, broken := collectAllows(pkg)
	kept := diags[:0]
	for _, d := range diags {
		if al := allows.match(d); al != nil {
			al.used = true
			continue
		}
		kept = append(kept, d)
	}
	diags = append(kept, broken...)
	for _, al := range allows {
		if !al.used && ran[al.analyzer] {
			diags = append(diags, Diagnostic{
				Pos:      al.pos,
				Analyzer: allowAnalyzerName,
				Message:  fmt.Sprintf("stale //lint:allow: no %s diagnostic on this or the next line; remove it", al.analyzer),
			})
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// matchScope reports whether a package path falls inside a scope list. A
// scope entry is either an exact import path or a "prefix/..." wildcard
// (which also matches the prefix itself, mirroring go tool patterns).
func matchScope(pkg string, scope []string) bool {
	for _, s := range scope {
		if base, ok := strings.CutSuffix(s, "/..."); ok {
			if pkg == base || strings.HasPrefix(pkg, base+"/") {
				return true
			}
			continue
		}
		if pkg == s {
			return true
		}
	}
	return false
}

// funcOf resolves a call expression to the function or method object it
// invokes, or nil for calls through function-typed variables, type
// conversions and built-ins.
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the defining package path of a function object ("" for
// builtins).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// namedOrigin unwraps pointers and aliases and returns the named type (or
// nil) behind t — the declaration whose package identifies ownership for
// receiver-scoped rules like errclose.
func namedOrigin(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
