package lint

import (
	"go/ast"
	"strconv"
)

// detrandBannedImports are package imports that smuggle nondeterminism into
// the search loop. math/rand's global generator is seeded per process and
// math/rand/v2 seeds from runtime entropy; both break replayability. All
// randomness flows through harl/internal/xrand task streams instead.
var detrandBannedImports = map[string]string{
	"math/rand":    "use harl/internal/xrand task RNG streams",
	"math/rand/v2": "use harl/internal/xrand task RNG streams",
	"crypto/rand":  "use harl/internal/xrand task RNG streams",
}

// detrandBannedCalls are functions whose results vary across runs, hosts or
// processes: wall clocks and process identity. A seed or decision derived
// from any of them silently breaks the workers=1 ≡ workers=N byte-identical
// journal contract.
var detrandBannedCalls = map[string]map[string]string{
	"time": {
		"Now":   "wall clock",
		"Since": "wall clock",
		"Until": "wall clock",
	},
	"os": {
		"Getpid":    "process identity",
		"Getppid":   "process identity",
		"Getenv":    "environment-derived value",
		"LookupEnv": "environment-derived value",
		"Environ":   "environment-derived value",
		"Hostname":  "host identity",
	},
}

// newDetrand builds the detrand analyzer scoped to the given package list. It
// reports imports of math/rand (v1 and v2) and crypto/rand, and calls to wall
// clocks (time.Now/Since/Until) and process-identity accessors
// (os.Getpid/Getenv/...) inside the deterministic packages: reproducibility of
// the RL search loop is what makes journals replayable and cost models
// transferable, so entropy may enter only through the explicit xrand seam.
func newDetrand(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc:  "forbid wall clocks, math/rand and pid/env-derived values in the deterministic packages",
	}
	a.Run = func(pass *Pass) error {
		if !matchScope(pass.Path, scope) {
			return nil
		}
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if fix, ok := detrandBannedImports[path]; ok {
					pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: %s", path, pass.Path, fix)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcOf(pass.Info, call)
				if fn == nil {
					return true
				}
				if why, ok := detrandBannedCalls[pkgPathOf(fn)][fn.Name()]; ok {
					pass.Reportf(call.Pos(), "%s.%s (%s) in deterministic package %s: derive values from the task's xrand stream or pass them in explicitly",
						pkgPathOf(fn), fn.Name(), why, pass.Path)
				}
				return true
			})
		}
		return nil
	}
	return a
}
