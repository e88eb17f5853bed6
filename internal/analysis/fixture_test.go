package analysis

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// LoadFixtureDir loads the single package rooted at dir (a testdata
// fixture, invisible to `go list ./...`): it parses every .go file,
// resolves the fixture's stdlib imports to export data, and
// type-checks. Fixture packages may import the standard library only.
func LoadFixtureDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %w", dir, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: fixture %s: no .go files", dir)
	}

	// A throwaway parse collects the imports so one `go list` resolves
	// their export data (compiling them into the build cache on first
	// use).
	impSet := map[string]bool{}
	scanFset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(scanFset, f, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("analysis: fixture %s: %w", dir, err)
		}
		for _, im := range af.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p != "" && p != "unsafe" {
				impSet[p] = true
			}
		}
	}
	exports := make(map[string]string)
	if len(impSet) > 0 {
		patterns := make([]string, 0, len(impSet))
		for p := range impSet {
			patterns = append(patterns, p)
		}
		listed, err := goList(dir, false, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	return typecheck(fset, imp, "fixture/"+filepath.Base(dir), dir, files)
}

// wantRe extracts `// want `regex“ (or "regex") expectations from
// fixture comments, analysistest-style. One comment may carry several.
var wantRe = regexp.MustCompile("want\\s+((?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")(?:\\s+(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"))*)")

var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one want: a diagnostic on file:line whose message
// matches re.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants collects every expectation declared in the package's
// fixture comments.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllString(m[1], -1) {
					var pat string
					if arg[0] == '`' {
						pat = arg[1 : len(arg)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, arg, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name>, runs the analyzer with Match
// bypassed (the filter scopes the real tree, not the semantics), and
// diffs findings against the want expectations.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	pkg, err := LoadFixtureDir(filepath.Join("testdata", "src", a.Name))
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no wants; a fixture must have at least one positive case", a.Name)
	}
	unscoped := &Analyzer{Name: a.Name, Doc: a.Doc, Run: a.Run, RunProgram: a.RunProgram}
	diags := Run([]*Package{pkg}, []*Analyzer{unscoped})
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// TestFixtures runs every analyzer against its positive/negative
// fixture package under testdata/src.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) { runFixture(t, a) })
	}
}

// TestRepoTreeIsClean runs the full suite over the real tree and
// demands zero findings. This makes the clean-tree invariant tier-1:
// a violation anywhere in the repo fails `go test ./...`, not just
// the lint job.
func TestRepoTreeIsClean(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	clients, err := LoadClients(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(append(pkgs, clients...), All()) {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Logf("fix the findings or add a //repolint:allow <name> -- <reason> directive")
	}
}

// TestParseAllow pins the directive grammar.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
		ok     bool
	}{
		{"//repolint:allow detpath -- timeout bookkeeping", []string{"detpath"}, "timeout bookkeeping", true},
		{"//repolint:allow errwrap,detpath -- two at once", []string{"errwrap", "detpath"}, "two at once", true},
		{"//repolint:allow errwrap detpath", []string{"errwrap", "detpath"}, "", true},
		{"//repolint:allow reach --  ", []string{"reach"}, "", true},
		{"//repolint:allow", nil, "", false},
		{"//repolint:allowx detpath", nil, "", false},
		{"// repolint:allow detpath", nil, "", false},
	}
	for _, c := range cases {
		names, reason, ok := parseAllow(c.text)
		if ok != c.ok || reason != c.reason || fmt.Sprint(names) != fmt.Sprint(c.names) {
			t.Errorf("parseAllow(%q) = %v, %q, %v; want %v, %q, %v", c.text, names, reason, ok, c.names, c.reason, c.ok)
		}
	}
}
