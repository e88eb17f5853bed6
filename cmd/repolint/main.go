// Command repolint is the repository's static-analysis multichecker:
// it compiles the internal/analysis suite — errwrap, ctxflow,
// goroutinelife, detpath, closecheck, reach (DESIGN.md §12) — into one
// binary, usable two ways:
//
// Standalone, over package patterns (the `make lint` and CI form):
//
//	go run ./cmd/repolint ./...
//
// exits 0 when the tree is clean and 1 with file:line:col findings
// otherwise. And as a vet tool, which also covers test files of the
// analyzed packages:
//
//	go build -o /tmp/repolint ./cmd/repolint
//	go vet -vettool=/tmp/repolint ./...
//
// A finding is suppressed by annotating the offending line (or the
// line below a comment-only line) with
//
//	//repolint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The clean-tree invariant is also asserted by the tier-1 test
// TestRepoTreeIsClean, so `go test ./...` fails before CI does.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	// Vet-protocol invocations (-V=full, -flags, pkg.cfg) exit inside
	// VetToolMain; everything else is the standalone multichecker.
	analysis.VetToolMain(os.Args[1:], analysis.All())

	list := flag.Bool("list", false, "list the analyzers and their invariants, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repolint [-list] [packages]\n\nRuns the repo's invariant analyzers (default pattern ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// lint loads the packages matching patterns plus the module's nested
// client modules (bench/, the roots reach needs beyond the mains) and
// runs the whole suite over them.
func lint(patterns []string) ([]analysis.Diagnostic, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		return nil, err
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	clients, err := analysis.LoadClients(root)
	if err != nil {
		return nil, err
	}
	return analysis.Run(append(pkgs, clients...), analysis.All()), nil
}
