package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, mirroring the
// golang.org/x/tools/go/analysis shape (see doc.go for why it is
// reimplemented here).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //repolint:allow directives.
	Name string
	// Doc is the one-line invariant statement shown by `repolint help`.
	Doc string
	// Match restricts the analyzer to packages whose import path it
	// accepts; nil means every package. Fixture runs bypass Match — the
	// filter scopes the real tree, not the semantics.
	Match func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram, set instead of Run by a whole-program analyzer
	// (reach), inspects everything loaded at once. It runs under Run
	// only: the vet protocol hands the tool one package at a time.
	RunProgram func(pkgs []*Package, report func(pkg *Package, pos token.Pos, format string, args ...any))
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// FuncBodies maps same-package function and method objects to
	// their declarations, for the cross-function checks (goroutinelife
	// follows `go m.loop()` into loop's body).
	FuncBodies map[*types.Func]*ast.FuncDecl

	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{ErrWrap, CtxFlow, GoroutineLife, DetPath, CloseCheck, Reach}
}

// matchPackages builds a Match that accepts exactly the given import
// path suffixes of this module (e.g. "internal/mpi").
func matchPackages(suffixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, s := range suffixes {
			if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
				return true
			}
		}
		return false
	}
}

// Run applies the suite to everything loaded together: the
// whole-program analyzers once over all of pkgs, then RunPackage on each
// package that is not a client (client modules are roots for reach, not
// governed code).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	program := make(map[*Package][]Diagnostic)
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a.RunProgram(pkgs, func(pkg *Package, pos token.Pos, format string, args ...any) {
			program[pkg] = append(program[pkg], Diagnostic{
				Pos:      pkg.Fset.Position(pos),
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Client {
			all = append(all, runPackage(pkg, analyzers, program[pkg])...)
		}
	}
	return all
}

// RunPackage applies every applicable per-package analyzer to one
// loaded package and returns the findings that survive
// //repolint:allow filtering, sorted by position. Test files never
// produce findings: the suite governs shipped code, and fixtures
// exercise the analyzers directly.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return runPackage(pkg, analyzers, nil)
}

// runPackage is RunPackage with the whole-program findings that landed
// in pkg joining its own before filtering.
func runPackage(pkg *Package, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	for _, a := range analyzers {
		if a.Run == nil || (a.Match != nil && !a.Match(pkg.ImportPath)) {
			continue
		}
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			FuncBodies: pkg.FuncBodies,
			diags:      &diags,
		}
		a.Run(pass)
	}
	diags = filterAllowed(pkg, diags)
	kept := diags[:0]
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "_test.go") {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos.Filename != kept[j].Pos.Filename {
			return kept[i].Pos.Filename < kept[j].Pos.Filename
		}
		if kept[i].Pos.Line != kept[j].Pos.Line {
			return kept[i].Pos.Line < kept[j].Pos.Line
		}
		return kept[i].Pos.Column < kept[j].Pos.Column
	})
	return kept
}

// allowPrefix introduces an escape directive comment.
const allowPrefix = "//repolint:allow"

// filterAllowed drops diagnostics on lines covered by a
// //repolint:allow directive naming their analyzer. A directive covers
// its own line (trailing comment) and, when nothing but whitespace
// precedes it on the line, the next line (comment-above form). One
// without a reason covers nothing and is itself reported.
func filterAllowed(pkg *Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	allowed := make(map[key]map[string]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if reason == "" {
					diags = append(diags, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: "//repolint:allow " + strings.Join(names, ",") + " needs a reason: append `-- <why the invariant does not apply here>`"})
					continue
				}
				grant := func(line int) {
					k := key{pos.Filename, line}
					if allowed[k] == nil {
						allowed[k] = make(map[string]bool)
					}
					for _, n := range names {
						allowed[k][n] = true
					}
				}
				grant(pos.Line)
				if ownLine(pkg.Srcs[pos.Filename], pos.Offset) {
					grant(pos.Line + 1)
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if allowed[key{d.Pos.Filename, d.Pos.Line}][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// parseAllow extracts the analyzer names and the reason from an allow
// directive:
//
//	//repolint:allow name1,name2 -- reason
func parseAllow(text string) (names []string, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, "", false
	}
	rest, reason, _ = strings.Cut(rest, "--")
	for _, f := range strings.Fields(rest) {
		for _, n := range strings.Split(f, ",") {
			if n != "" {
				names = append(names, n)
			}
		}
	}
	return names, strings.TrimSpace(reason), len(names) > 0
}

// ownLine reports whether only whitespace precedes offset on its line.
func ownLine(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	i := bytes.LastIndexByte(src[:offset], '\n') + 1
	return len(bytes.TrimSpace(src[i:offset])) == 0
}

// ---- shared type-inspection helpers ----

// errorType is the universe error type; errorIface its interface.
var (
	errorType  = types.Universe.Lookup("error").Type()
	errorIface = errorType.Underlying().(*types.Interface)
)

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false
	}
	return types.Implements(t, errorIface)
}

// objectOf resolves an identifier or selector expression to its object.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// calleeFunc resolves a call's callee to a *types.Func (static calls
// only: package functions, methods; nil for function values and
// builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if f, ok := objectOf(info, call.Fun).(*types.Func); ok {
		return f
	}
	return nil
}

// isPkgCall reports whether call is a static call to pkgPath.name.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// isNamed reports whether t (after pointer unwrapping) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
