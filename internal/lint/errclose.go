package lint

import (
	"go/ast"
	"go/types"
)

// newErrclose builds the errclose analyzer scoped to the given package list
// (normally the whole module). It reports discarded error returns of Close
// and Flush on the persistence types — tunelog journals and file locks, and
// registries — whether discarded as a bare statement, a defer, or an
// explicit `_ =` assignment.
//
// These closes carry data-loss signal, not cleanup noise: Journal.Close
// surfaces the retained write error of every fire-and-forget append, a
// registry Close waits for in-flight publishes, and a failed flock release
// can wedge every later publisher. The
// analyzer keys on the receiver's defining package (closePackages, plus the
// io.Closer handles tunelog.AcquireFileLock hands out), so closing an os.File
// or an HTTP body stays untouched.
func newErrclose(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "errclose",
		Doc:  "check Close/Flush errors on journals, locks and registries",
	}
	a.Run = func(pass *Pass) error {
		if !matchScope(pass.Path, scope) {
			return nil
		}
		report := func(call *ast.CallExpr, how string) {
			fn, recv := closeLike(pass.Info, call)
			if fn == nil {
				return
			}
			pass.Reportf(call.Pos(), "%s %s.%s discards its error: it carries the journal write failure — check it (or join it into the returned error)",
				how, recv, fn.Name())
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					if call, ok := st.X.(*ast.CallExpr); ok {
						report(call, "unchecked")
					}
				case *ast.DeferStmt:
					report(st.Call, "deferred")
				case *ast.GoStmt:
					report(st.Call, "go-discarded")
				case *ast.AssignStmt:
					if call, ok := soleBlankAssign(st); ok {
						report(call, "explicitly discarded")
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// soleBlankAssign matches `_ = x.Close()` — a single call assigned entirely
// to blanks.
func soleBlankAssign(st *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(st.Rhs) != 1 {
		return nil, false
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	for _, lhs := range st.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return nil, false
		}
	}
	return call, true
}

// closeLike resolves call to a Close/Flush method returning exactly one
// error whose receiver type is owned by a persistence package (or is the
// io.Closer interface itself — the shape of tunelog.AcquireFileLock's
// returned lock handle). It returns the method object and a receiver label
// for the message, or nil.
func closeLike(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	fn := funcOf(info, call)
	if fn == nil || (fn.Name() != "Close" && fn.Name() != "Flush") {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return nil, ""
	}
	if named, ok := sig.Results().At(0).Type().(*types.Named); !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return nil, ""
	}
	// The static receiver type at the call site decides scope: a concrete
	// journal or registry, or an interface declared by a persistence
	// package, all count; so does a plain io.Closer, because that is how
	// flock handles travel.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	recv := namedOrigin(info.TypeOf(sel.X))
	if recv == nil || recv.Obj().Pkg() == nil {
		return nil, ""
	}
	pkg, name := recv.Obj().Pkg().Path(), recv.Obj().Name()
	if pkg == "io" && name == "Closer" {
		return fn, "io.Closer (lock handle)"
	}
	if matchScope(pkg, closePackages) {
		return fn, name
	}
	return nil, ""
}
