package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// newAtomicwrite builds the atomicwrite analyzer scoped to the given package
// list. In the packages that own persisted artifacts it reports:
//
//   - os.WriteFile and os.Create — a crash mid-write leaves a torn artifact
//     that the next reader sees as corruption (or worse, silently loads);
//   - os.OpenFile whose constant flag word enables writing (O_WRONLY, O_RDWR,
//     O_CREATE or O_TRUNC) without O_APPEND — the only sanctioned direct
//     write shape is the append-only journal under its advisory lock.
//
// Durable artifacts go through harl/internal/atomicfile (temp file + rename
// + fsync) or the locked journal append helpers in harl/internal/tunelog;
// PR 6's torn-tail repair exists because one path predating the rule did not.
func newAtomicwrite(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "atomicwrite",
		Doc:  "persisted artifacts go through internal/atomicfile or locked journal appends, never bare writes",
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
				if fn == nil || pkgPathOf(fn) != "os" {
					return true
				}
				switch fn.Name() {
				case "WriteFile":
					pass.Reportf(call.Pos(), "bare os.WriteFile of a persisted artifact: use atomicfile.WriteFile (temp file + rename + fsync) so a crash cannot tear it")
				case "Create":
					pass.Reportf(call.Pos(), "bare os.Create of a persisted artifact: use atomicfile.WriteFile or a locked journal append")
				case "OpenFile":
					if flags, known := constFlagArg(pass.Info, call); known && writesWithoutAppend(flags, osFlagValues(pass)) {
						pass.Reportf(call.Pos(), "os.OpenFile opens for writing without O_APPEND: persisted artifacts take atomicfile.WriteFile or an append-only journal under its lock")
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// constFlagArg extracts the constant value of an os.OpenFile flag argument.
// A non-constant flag word stays un-flagged: the rule is about the static
// shape of the call, and every sanctioned caller uses literal flags.
func constFlagArg(info *types.Info, call *ast.CallExpr) (int64, bool) {
	if len(call.Args) < 2 {
		return 0, false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
}

// osFlagValues resolves O_APPEND / O_WRONLY / O_RDWR / O_CREATE / O_TRUNC
// from the imported os package, so the check tracks the platform's actual
// bit values instead of hardcoding linux's.
func osFlagValues(pass *Pass) map[string]int64 {
	out := make(map[string]int64, 5)
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() != "os" {
			continue
		}
		for _, name := range []string{"O_APPEND", "O_WRONLY", "O_RDWR", "O_CREATE", "O_TRUNC"} {
			c, ok := imp.Scope().Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
				out[name] = v
			}
		}
	}
	return out
}

func writesWithoutAppend(flags int64, bits map[string]int64) bool {
	if len(bits) < 5 {
		return false
	}
	if flags&bits["O_APPEND"] != 0 {
		return false
	}
	write := bits["O_WRONLY"] | bits["O_RDWR"] | bits["O_CREATE"] | bits["O_TRUNC"]
	return flags&write != 0
}
