package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// newMaporder builds the maporder analyzer scoped to the given package list.
// It reports a range over a map whose loop body reaches an order-sensitive
// sink — a journal append, a checkpoint/JSON/wire encode, a fingerprint or
// hash write, or a writer print. Go randomizes map iteration order, so bytes
// produced inside such a loop differ run to run, which breaks the
// byte-identical journal and checkpoint contracts.
//
// The deterministic idiom is untouched: collect keys into a slice inside the
// range, sort, then emit while ranging the sorted slice — there the sink sits
// after the map loop, not inside it.
func newMaporder(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "forbid map iteration that feeds journals, checkpoints, hashes or wire encodes",
	}
	a.Run = func(pass *Pass) error {
		if !matchScope(pass.Path, scope) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := pass.Info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
					return true
				}
				ast.Inspect(rng.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sink := orderSink(pass, call); sink != "" {
						pass.Reportf(call.Pos(), "%s inside a map-range body: iteration order is randomized — collect keys, sort deterministically, then emit", sink)
					}
					return true
				})
				return true
			})
		}
		return nil
	}
	return a
}

// orderSink classifies a call as an order-sensitive sink, returning a
// human-readable label or "".
func orderSink(pass *Pass, call *ast.CallExpr) string {
	fn := funcOf(pass.Info, call)
	if fn == nil {
		return ""
	}
	pkg, name := pkgPathOf(fn), fn.Name()
	switch pkg {
	case "encoding/json":
		// Marshal of a whole map value is key-sorted by encoding/json itself;
		// the hazard here is per-iteration encodes, which interleave in map
		// order.
		if strings.HasPrefix(name, "Marshal") || name == "Encode" || name == "NewEncoder" {
			return "json encode of " + name
		}
	case "fmt":
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
			return "writer print fmt." + name
		}
	case "harl/internal/tunelog":
		if name == "Append" {
			return "journal append"
		}
	case "harl/internal/atomicfile":
		return "persisted-artifact write atomicfile." + name
	}
	// Hash writes resolve through the io.Writer embedded in hash.Hash, so key
	// on the receiver's defining package rather than the method's.
	if name == "Write" || strings.HasPrefix(name, "Sum") {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if recv := namedOrigin(pass.Info.TypeOf(sel.X)); recv != nil && recv.Obj().Pkg() != nil {
				rp := recv.Obj().Pkg().Path()
				if rp == "hash" || strings.HasPrefix(rp, "hash/") || strings.HasPrefix(rp, "crypto/") {
					return "hash write"
				}
			}
		}
	}
	if strings.HasPrefix(pkg, "harl/") || pkg == "harl" {
		switch {
		case strings.HasPrefix(name, "Marshal"):
			return "serialization " + name
		case name == "Fingerprint":
			return "fingerprint hash"
		case strings.HasPrefix(name, "Save") || strings.HasPrefix(name, "Checkpoint"):
			return "checkpoint encode " + name
		}
	}
	return ""
}
