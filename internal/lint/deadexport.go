package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// declKey names a package-level declaration or a method the way every load
// of it spells it: package path, receiver type name ("" unless a method) and
// name. Load type-checks each package from source but its imports from
// export data, so one declaration is a different types.Object in every
// package that refers to it; only its key is the same everywhere.
type declKey struct{ pkg, recv, name string }

// implicitInterfaces are the method sets the standard library looks for
// without the program naming an interface: error, fmt.Stringer,
// errors.Unwrap's Unwrap() error, json.Marshaler and json.Unmarshaler,
// http.Handler and sort.Interface. Signatures are sigKey text.
var implicitInterfaces = []map[string]string{
	{"Error": "func() string"},
	{"String": "func() string"},
	{"Unwrap": "func() error"},
	{"MarshalJSON": "func() ([]byte, error)"},
	{"UnmarshalJSON": "func([]byte) error"},
	{"ServeHTTP": "func(net/http.ResponseWriter, *net/http.Request)"},
	{"Len": "func() int", "Less": "func(int, int) bool", "Swap": "func(int, int)"},
}

// newDeadexport builds the whole-program deadexport analyzer over pkgs,
// which must be all of what Load returns for ./... — go list's GoFiles, so
// no _test.go file is among them and a use from a test keeps nothing live.
//
// It reports every exported package-level func, type, var and const, and
// every exported method, that a non-main package declares and no other
// declaration references; a method receiver does not count as a reference to
// its type. A method is also live when its type (or a pointer to it) has
// every method, by name and signature, of an interface the program declares
// or uses, or of one in implicitInterfaces. Struct fields and interface
// methods are never reported, and main packages' exports are never
// reported, though their uses count.
//
// Second, it reports a live exported package-level func, var or const of an
// internal/ package that no other package references: nothing outside the
// module can import it, so its export serves no one. Methods and fields
// follow their type, and so does a var or const of a named type its package
// declares or aliases, so an enum is never split. Types wait for a
// value-flow walk: one can cross a package boundary unnamed, as a func
// result whose fields the caller sets.
//
// The program is analyzed here, once. The analyzer's Run reports the
// findings declared in its package, so they go through that package's
// //lint:allow comments like any other analyzer's.
func newDeadexport(pkgs []*Package) *Analyzer {
	type finding struct {
		pos    token.Pos
		what   string
		scoped bool // in scope of the own-package finding
	}
	var (
		decls  = map[declKey]finding{}
		used   = map[declKey]bool{}
		shared = map[declKey]bool{} // used from another package
		ifaces = slices.Clone(implicitInterfaces)
		seen   = map[*types.Interface]bool{}
		named  []*types.Named
	)
	refs := func(pkg *Package, n ast.Node, self ...declKey) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k, ok := keyOf(pkg.Info.Uses[id]); ok && !slices.Contains(self, k) {
					used[k] = true
					shared[k] = shared[k] || k.pkg != pkg.Path
				}
			}
			return true
		})
	}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		m := make(map[string]string, it.NumMethods())
		for i := range it.NumMethods() {
			m[it.Method(i).Name()] = sigKey(it.Method(i))
		}
		ifaces = append(ifaces, m)
	}
	// An interface counts as used when an object the program declares or
	// refers to has it as its type, or is a func that takes or returns it.
	usesIfaces := func(t types.Type) {
		addIface(t)
		if sig, ok := t.Underlying().(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := range tup.Len() {
					addIface(tup.At(i).Type())
				}
			}
		}
	}

	for _, pkg := range pkgs {
		lib := pkg.Types.Name() != "main"
		internal := slices.Contains(strings.Split(pkg.Path, "/"), "internal")
		// declare returns a declaration's key, recording it in decls when it
		// is an export of a library package.
		declare := func(id *ast.Ident, what string) declKey {
			obj := pkg.Info.Defs[id]
			k, ok := keyOf(obj)
			if ok && lib && id.IsExported() {
				name := k.name
				if k.recv != "" {
					name = k.recv + "." + name
				}
				// A value of a type its package declares, or aliases under
				// the same name, stays with that type.
				var enum bool
				if n, ok := obj.Type().(*types.Named); ok {
					tn, _ := pkg.Types.Scope().Lookup(n.Obj().Name()).(*types.TypeName)
					enum = tn != nil && types.Identical(tn.Type(), n)
				}
				decls[k] = finding{id.Pos(), what + " " + name, internal && k.recv == "" && what != "type" && !enum}
			}
			return k
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					what := "func"
					if d.Recv != nil {
						what = "method"
					}
					self := declare(d.Name, what)
					refs(pkg, d.Type, self)
					if d.Body != nil {
						refs(pkg, d.Body, self)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						default:
							continue
						}
						var self []declKey
						for _, id := range names {
							self = append(self, declare(id, d.Tok.String()))
						}
						refs(pkg, spec, self...)
					}
				}
			}
		}
		for _, objs := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					usesIfaces(obj.Type())
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}

	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
		if ms.Len() == 0 {
			continue
		}
		have := make(map[string]*types.Func, ms.Len())
		for i := range ms.Len() {
			fn := ms.At(i).Obj().(*types.Func)
			have[fn.Name()] = fn
		}
		for _, iface := range ifaces {
			if implements(have, iface) {
				for name := range iface {
					if k, ok := keyOf(have[name]); ok {
						used[k] = true
					}
				}
			}
		}
	}

	found := map[string][]finding{}
	for k, f := range decls {
		switch {
		case !used[k]:
			f.what += " has no use outside _test.go files: delete it, or allow it naming the tests that need it"
		case f.scoped && !shared[k]:
			f.what += " is used only inside its package: unexport it, or allow it naming who needs it"
		default:
			continue
		}
		found[k.pkg] = append(found[k.pkg], f)
	}
	return &Analyzer{
		Name: "deadexport",
		Doc:  "report exported declarations that nothing outside _test.go files, or nothing outside their internal/ package, uses",
		Run: func(pass *Pass) error {
			for _, f := range found[pass.Path] {
				pass.Reportf(f.pos, "exported %s", f.what)
			}
			return nil
		},
	}
}

// keyOf returns the declKey of a package-level object or a method of a named
// type, and false for anything else: locals, fields, labels, methods of
// unnamed interfaces, and universe objects.
func keyOf(obj types.Object) (declKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return declKey{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			n := namedOrigin(recv.Type())
			if n == nil {
				return declKey{}, false
			}
			return declKey{fn.Pkg().Path(), n.Obj().Name(), fn.Name()}, true
		}
		obj = fn
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return declKey{}, false
	}
	return declKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// implements reports whether a method set, by name, has every method of
// iface with the same sigKey.
func implements(have map[string]*types.Func, iface map[string]string) bool {
	for name, sig := range iface {
		if fn := have[name]; fn == nil || sigKey(fn) != sig {
			return false
		}
	}
	return true
}

// sigKey prints a func's signature without its receiver and parameter names,
// qualifying types by package path — text two loads of one method agree on.
func sigKey(fn *types.Func) string {
	sig := fn.Signature()
	unnamed := func(t *types.Tuple) *types.Tuple {
		vs := make([]*types.Var, t.Len())
		for i := range vs {
			vs[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vs...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}
