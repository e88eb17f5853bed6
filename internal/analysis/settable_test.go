package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// settableCeiling is the most independently settable values the tree
// may carry: command-line flags, exported With* options and exported
// fields of *Config structs. Each one multiplies the configurations tests
// and benchmarks would have to cover, so the count may fall but never
// rise unnoticed; lower it whenever a change removes some.
const settableCeiling = 143

// flagDefiners are the flag package's functions and FlagSet methods
// that define one flag each.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
	"Float64": true, "Float64Var": true, "String": true, "StringVar": true,
	"Duration": true, "DurationVar": true,
	"Var": true, "Func": true, "TextVar": true,
}

// settableValues lists, per kind, every settable value of the shipped
// (non-test) code in pkgs: flags defined in package main, exported
// package-level With* functions, and exported fields of exported
// struct types named Config or ending in Config.
func settableValues(pkgs []*Package) map[string][]string {
	found := make(map[string][]string)
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn := calleeFunc(pkg.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
						found["flags"] = append(found["flags"], pkg.Fset.Position(call.Pos()).String())
					}
					return true
				})
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && strings.HasPrefix(name, "With") {
					found["options"] = append(found["options"], pkg.ImportPath+"."+name)
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || !obj.Exported() || !strings.HasSuffix(name, "Config") {
					continue
				}
				for i := range st.NumFields() {
					if st.Field(i).Exported() {
						found["config fields"] = append(found["config fields"], pkg.ImportPath+"."+name+"."+st.Field(i).Name())
					}
				}
			}
		}
	}
	return found
}

// TestSettableValueCeiling holds the tree's settable values at or
// below settableCeiling.
func TestSettableValueCeiling(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	found := settableValues(pkgs)
	if len(found["flags"]) == 0 || len(found["options"]) == 0 || len(found["config fields"]) == 0 {
		t.Fatalf("a kind of settable value counts zero, so the count is broken: %v", found)
	}
	kinds := make([]string, 0, len(found))
	total := 0
	for kind, vals := range found {
		kinds = append(kinds, kind)
		total += len(vals)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		t.Logf("%s: %d", kind, len(found[kind]))
	}
	if total > settableCeiling {
		for _, kind := range kinds {
			for _, v := range found[kind] {
				t.Logf("  %s %s", kind, v)
			}
		}
		t.Fatalf("%d settable values exceed the ceiling of %d: remove one, or derive it from what the code already knows", total, settableCeiling)
	}
}
