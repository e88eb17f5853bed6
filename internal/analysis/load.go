package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	// Client marks a package of a nested module that builds against
	// this tree (LoadClients): reach roots at everything it refers to,
	// and no analyzer reports on it.
	Client bool
	Fset   *token.FileSet
	Files  []*ast.File
	// Srcs maps absolute file names to their source bytes (needed by
	// the allow-directive own-line test).
	Srcs       map[string][]byte
	Types      *types.Package
	Info       *types.Info
	FuncBodies map[*types.Func]*ast.FuncDecl
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	Standard    bool
	DepOnly     bool
	GoFiles     []string
	TestGoFiles []string
	ForTest     string
	Error       *struct{ Err string }
}

// goList runs `go list -deps -export -json` (with -test when tests is
// set, so the test files' own dependencies are listed and compiled too)
// on the patterns from dir and returns every listed package.
func goList(dir string, tests bool, patterns []string) ([]listedPackage, error) {
	args := []string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,TestGoFiles,ForTest,Error",
	}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s", p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup adapts an importpath→exportfile map to the gc
// importer's lookup signature.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// Load enumerates the packages matching patterns (resolved relative to
// dir, typically the module root with pattern "./..."), type-checks
// each against build-cache export data, and returns them ready for
// RunPackage. Only non-test Go files are loaded: the suite governs
// shipped code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadClients loads, in place and with their in-package test files,
// the modules nested one directory below root (bench/): separate
// modules `./...` cannot see that build against this tree, whose every
// reference into it is a root for reach. The packages come back marked
// Client.
func LoadClients(root string) ([]*Package, error) {
	mods, err := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var clients []*Package
	for _, mod := range mods {
		pkgs, err := load(filepath.Dir(mod), true, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			pkg.Client = true
		}
		clients = append(clients, pkgs...)
	}
	return clients, nil
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, tests, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// -test also lists each package's test variant and its
		// generated test main; the plain entry carries the same files.
		if !p.DepOnly && !p.Standard && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		names := t.GoFiles
		if tests {
			names = append(names, t.TestGoFiles...)
		}
		files := make([]string, len(names))
		for i, f := range names {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := typecheck(fset, imp, t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses files and runs go/types over them with full use,
// type, and selection information recorded.
func typecheck(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string) (*Package, error) {
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Srcs:       make(map[string][]byte, len(files)),
		FuncBodies: make(map[*types.Func]*ast.FuncDecl),
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Srcs[name] = src
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					pkg.FuncBodies[obj] = fd
				}
			}
		}
	}
	return pkg, nil
}

// ModuleRoot locates the enclosing module's root directory starting
// from dir (the directory holding go.mod), so tests running in a
// package directory can analyze the whole tree.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("analysis: no enclosing module at %s", dir)
	}
	return filepath.Dir(gomod), nil
}
