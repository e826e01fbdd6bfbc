package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// Load loads and type-checks the packages matching the go list patterns,
// resolving imports through compiler export data: it shells out to
// `go list -export -deps -json` (which compiles dependencies into the build
// cache as needed) and type-checks only the matched packages' sources. This
// keeps the loader offline and stdlib-only — the trade the suite makes for
// not depending on golang.org/x/tools. A package's sources are go list's
// GoFiles, so no _test.go file is ever loaded.
//
// dir anchors the go tool invocation (any directory inside the module).
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, append([]string{"-json=ImportPath"}, patterns...))
	if err != nil {
		return nil, err
	}
	wanted := make(map[string]bool, len(targets))
	for _, t := range targets {
		wanted[t.ImportPath] = true
	}
	all, err := goList(dir, append([]string{"-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(all))
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	// One importer memoizes the packages it reads, so it serves the whole load.
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for import %q", path)
		}
		return os.Open(e)
	})}
	var out []*Package
	for _, p := range all {
		if !wanted[p.ImportPath] || p.Standard {
			continue
		}
		pkg := &Package{Path: p.ImportPath, Fset: fset, Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}}
		for _, name := range p.GoFiles {
			name = filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", name, err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Types, err = conf.Check(p.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", p.ImportPath, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}

func goList(dir string, args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: parse go list output: %w", err)
		}
		out = append(out, &p)
	}
}

// ModuleRoot walks up from dir to the directory holding go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}
