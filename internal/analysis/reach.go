package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reach reports every package-level func, type, var, const and method
// that nothing executable refers to. It is the one whole-program
// analyzer: it walks the reference graph of the loaded non-test files
// from the roots that can run — every `main` of a main package, every
// `init`, and every identifier a client module (Package.Client: the
// nested bench/ module, test files included) resolves into the tree —
// so a symbol only `_test.go` files use is reported exactly like one
// nothing uses. Such code is deleted with its tests, moved beside the
// test that needs it, or kept under
//
//	//repolint:allow reach -- <which test uses it, and why>
//
// A method is reached when its receiver type is and either a reached
// selector names it or its name is a method of some interface the
// program declares or imports (conservative, by name: no attempt is
// made to prove the type ever flows into that interface). Methods of
// an unreached type are not reported separately. Blank declarations
// (`var _ I = (*T)(nil)`) neither root anything nor get reported.
//
// Symbols are matched across packages by import path and name, because
// every package is type-checked against its dependencies' export data
// and so sees its own copy of their objects.
//
// The analyzer reports nothing when no main package is loaded (a
// partial pattern such as ./internal/nn has no roots to walk from).
var Reach = &Analyzer{
	Name:       "reach",
	Doc:        "every package-level symbol is reachable from a main, an init or the bench/ module; what only tests use is deleted or lives in a _test.go file",
	RunProgram: runReach,
}

// reachSym is one node of the reference graph.
type reachSym struct {
	pkg     *Package
	pos     token.Pos
	what    string   // "func Foo", "method T.M", "type T", ...
	recv    string   // key of the receiver type; "" unless a method
	method  string   // bare method name; "" unless a method
	refs    []string // keys the declaration refers to
	reached bool
}

// symKey names a package-level object or method independently of which
// type-checker instance produced it; "" for anything else (locals,
// fields, builtins, package names).
func symKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Signature().Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
			}
			return "" // method of an interface literal
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// refsIn lists the keys of every symbol n's identifiers resolve to.
func refsIn(info *types.Info, n ast.Node) []string {
	var refs []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := symKey(info.Uses[id]); k != "" {
				refs = append(refs, k)
			}
		}
		return true
	})
	return refs
}

// addInterfaceMethods records the method names of every interface type
// declared at the top level of scope.
func addInterfaceMethods(names map[string]bool, scope *types.Scope) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				names[it.Method(i).Name()] = true
			}
		}
	}
}

func runReach(pkgs []*Package, report func(*Package, token.Pos, string, ...any)) {
	syms := make(map[string]*reachSym)
	methods := make(map[string][]string) // receiver type key → method keys
	ifaceMethods := map[string]bool{}
	var roots []string
	hasMain := false

	addInterfaceMethods(ifaceMethods, types.Universe)
	for _, pkg := range pkgs {
		addInterfaceMethods(ifaceMethods, pkg.Types.Scope())
		for _, imp := range pkg.Types.Imports() {
			addInterfaceMethods(ifaceMethods, imp.Scope())
		}
		for _, f := range pkg.Files {
			if pkg.Client {
				roots = append(roots, refsIn(pkg.Info, f)...)
				continue
			}
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			add := func(id *ast.Ident, kind string, refs []string) (string, *reachSym) {
				key := symKey(pkg.Info.Defs[id])
				s := &reachSym{pkg: pkg, pos: id.Pos(), what: kind + " " + id.Name, refs: refs}
				if key != "" {
					syms[key] = s
				}
				return key, s
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					refs := refsIn(pkg.Info, d)
					switch {
					case d.Name.Name == "_":
					case d.Recv != nil:
						key, s := add(d.Name, "method", refs)
						if key == "" {
							break
						}
						s.method = d.Name.Name
						s.recv = key[:strings.LastIndexByte(key, '.')]
						s.what = "method " + strings.TrimPrefix(key, pkg.Types.Path()+".")
						methods[s.recv] = append(methods[s.recv], key)
					case d.Name.Name == "init", d.Name.Name == "main" && pkg.Types.Name() == "main":
						hasMain = hasMain || d.Name.Name == "main"
						roots = append(roots, refs...)
					default:
						add(d.Name, "func", refs)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							add(sp.Name, "type", refsIn(pkg.Info, sp))
						case *ast.ValueSpec:
							refs := refsIn(pkg.Info, sp)
							for _, id := range sp.Names {
								if id.Name != "_" {
									add(id, strings.ToLower(d.Tok.String()), refs)
								}
							}
						}
					}
				}
			}
		}
	}
	if !hasMain {
		return
	}

	var visit func(key string)
	visit = func(key string) {
		s := syms[key]
		if s == nil || s.reached {
			return
		}
		s.reached = true
		if s.recv != "" {
			visit(s.recv)
		}
		for _, m := range methods[key] {
			if ifaceMethods[syms[m].method] {
				visit(m)
			}
		}
		for _, r := range s.refs {
			visit(r)
		}
	}
	for _, r := range roots {
		visit(r)
	}

	for _, s := range syms {
		if s.reached {
			continue
		}
		if t := syms[s.recv]; s.recv != "" && (t == nil || !t.reached) {
			continue // reported, if at all, as its receiver type
		}
		report(s.pkg, s.pos, "%s is reachable from no main, init or bench/ reference: delete it with its tests, or move it beside the test that needs it", s.what)
	}
}
