// Command harl-lint runs the determinism and wire-contract lint suite
// (internal/lint) over the module. It is usable two ways:
//
// Standalone, over go list patterns (default ./...):
//
//	harl-lint [-only detrand,maporder] [packages...]
//
// The whole-program deadexport pass runs only standalone and only when named,
// over the whole module (it must see every use):
//
//	harl-lint -only deadexport ./...
//
// As a vet tool, so the suite rides the go toolchain's per-package caching
// and covers test files:
//
//	go vet -vettool=$(command -v harl-lint) ./...
//
// In vettool mode the command speaks the cmd/go vet protocol by hand (the
// same handshake golang.org/x/tools/go/analysis/unitchecker implements):
// -V=full prints a content-hashed version so vet's result cache invalidates
// when the binary changes, -flags advertises no analyzer flags, and a
// trailing *.cfg argument carries the package's files, import maps and
// export-data paths. The tool emits no facts; it writes the empty vetx file
// cmd/go expects and exits 2 when diagnostics survive suppression.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"harl/internal/lint"
)

func main() {
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vettool(os.Args[1]))
	}

	only := flag.String("only", "", "comma-separated analyzer subset to run (default: all)")
	flag.Parse()
	os.Exit(standalone(*only, flag.Args()))
}

// printVersion emits the -V=full line cmd/go keys its vet result cache on.
// The build id is a hash of the executable itself, so editing an analyzer
// and rebuilding invalidates cached "clean" verdicts.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("harl-lint version v1 buildID=%s\n", id)
}

func standalone(only string, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	analyzers := selectAnalyzers(only, pkgs)
	if analyzers == nil {
		fmt.Fprintf(os.Stderr, "harl-lint: unknown analyzer in -only=%s\n", only)
		return 1
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers, lint.Options{ReportStaleAllows: true})
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

// selectAnalyzers resolves -only (nil for an unknown name). The empty list
// is the per-package suite; deadexport runs only when named, over pkgs.
func selectAnalyzers(only string, pkgs []*lint.Package) []*lint.Analyzer {
	suite := lint.Suite()
	if only == "" {
		return suite
	}
	byName := make(map[string]*lint.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if name == "deadexport" {
			a, ok = lint.NewDeadexport(pkgs), true
		}
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// vetConfig is the package description cmd/go hands a vet tool — the same
// wire structure unitchecker consumes.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harl-lint: read vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "harl-lint: parse vet config %s: %v\n", cfgPath, err)
		return 1
	}
	// cmd/go requires the facts file to exist for every analyzed package;
	// the suite derives no facts, so an empty file satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "harl-lint: write vetx output: %v\n", err)
			return 1
		}
	}
	path := cfg.ImportPath
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	// vet drives the tool over the whole build graph (stdlib included) so
	// facts-based tools can see dependencies. This suite is module-local:
	// anything outside it has nothing to analyze.
	if cfg.VetxOnly || (path != "harl" && !strings.HasPrefix(path, "harl/")) {
		return 0
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, cfg)
	pkg, err := lint.TypeCheck(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := lint.Run(pkg, lint.Suite(), lint.Options{ReportStaleAllows: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// exportImporter resolves imports through the vet config's vendor-aware
// ImportMap into its export-data file table.
func exportImporter(fset *token.FileSet, cfg vetConfig) types.Importer {
	return lint.ExportDataImporter(fset, func(path string) (string, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return "", fmt.Errorf("harl-lint: vet config for %s carries no export data for import %q", cfg.ImportPath, path)
		}
		return file, nil
	})
}
