package lint

import (
	"go/ast"
	"go/types"
)

// newWireenvelope builds the wireenvelope analyzer scoped to the given
// package list. In the HTTP handler layers it reports:
//
//   - calls to net/http.Error — every non-2xx body must be the one v1 error
//     envelope, written by wire.WriteError (http.Error emits bare text and
//     bypasses the contract);
//   - anonymous map[string]... composite literals passed to a JSON encode or
//     wire.WriteJSON — response shapes must be named, versioned wire types
//     (internal/service/wire.go, internal/wire), not ad-hoc maps that drift
//     field by field.
//
// This is the exact bug class PR 7 fixed by hand: a hand-rolled error string
// and {"cache_hit":false} map bodies that silently violated the documented
// contract.
func newWireenvelope(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "wireenvelope",
		Doc:  "route handler errors through wire.WriteError and responses through named wire types",
	}
	a.Run = func(pass *Pass) error {
		if !matchScope(pass.Path, scope) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcOf(pass.Info, call)
				if fn == nil {
					return true
				}
				pkg, name := pkgPathOf(fn), fn.Name()
				if pkg == "net/http" && name == "Error" {
					pass.Reportf(call.Pos(), "http.Error bypasses the v1 error envelope: use wire.WriteError with a stable ErrorCode")
					return true
				}
				if isResponseEncoder(pkg, name) {
					for _, arg := range call.Args {
						if lit := anonymousStringMapLit(pass.Info, arg); lit != nil {
							pass.Reportf(lit.Pos(), "anonymous map[string] response literal passed to %s.%s: define a named, versioned wire type instead", pkg, name)
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isResponseEncoder reports whether pkg.name serializes a response body.
func isResponseEncoder(pkg, name string) bool {
	switch pkg {
	case "encoding/json":
		return name == "Marshal" || name == "MarshalIndent" || name == "Encode"
	case "harl/internal/wire":
		return name == "WriteJSON"
	}
	return false
}

// anonymousStringMapLit unwraps unary-& and parens and returns arg as a
// composite literal of map[string]... type, or nil.
func anonymousStringMapLit(info *types.Info, arg ast.Expr) *ast.CompositeLit {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	m, ok := info.TypeOf(lit).Underlying().(*types.Map)
	if !ok {
		return nil
	}
	if basic, ok := m.Key().Underlying().(*types.Basic); !ok || basic.Kind() != types.String {
		return nil
	}
	return lit
}
