// Package analysis is the repo's static-analysis suite: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, diagnostics, testdata fixtures) plus six
// repo-specific analyzers that turn the runtime invariants PR 1-6
// established by convention — and, with reach, the contents of the tree
// itself — into properties no commit can violate.
//
// Why not golang.org/x/tools? The build environment is hermetic — the
// module has no dependencies and the image carries no module cache — so
// the framework is rebuilt here on the standard library alone:
// packages are enumerated and compiled with `go list -deps -export`,
// their dependencies are imported from the build cache's export data
// via go/importer's gc lookup mode, and syntax is type-checked with
// go/types exactly as a vet tool would. The surface mirrors
// go/analysis closely enough that, should x/tools become available,
// the analyzers port mechanically.
//
// The analyzers (DESIGN.md §12 states each invariant and its origin):
//
//   - errwrap: sentinel errors (package-level Err* variables, io.EOF)
//     must flow through errors.Is/As and be wrapped with %w — never
//     compared with ==/!=, switched on, type-asserted, or stringified
//     into a fresh error by a %v/%s fmt.Errorf.
//
//   - ctxflow: a function that receives a context.Context must thread
//     it (possibly derived) to every callee that accepts one, never
//     context.Background()/TODO() — preserving the PR 6 request-ID
//     chain HTTP → batcher → engine → ranks.
//
//   - goroutinelife: every `go` statement in internal/{core,mpi,serve}
//     must have a visible lifecycle: a WaitGroup Add in the spawning
//     function, or a `defer wg.Done()` / `defer close(done)` in the
//     spawned body (directly or in a same-package callee).
//
//   - detpath: the deterministic frame-producing packages
//     (tensor, nn, autodiff, mpi) must not read the wall clock
//     (time.Now/Since), use the global math/rand RNG, or range over a
//     map — the three classic sources of run-to-run divergence.
//
//   - closecheck: file handles opened for writing (os.Create,
//     os.CreateTemp, os.OpenFile) must have their Close error checked;
//     a full disk must never truncate silently (the PR 5 bug class).
//
//   - reach: every package-level func, type, var, const and method is
//     reachable from the main of a binary, an init, or a reference from
//     the nested bench/ module (LoadClients); code only _test.go files
//     use is deleted with its tests or lives in a _test.go file. The one
//     whole-program analyzer (Analyzer.RunProgram, driven by Run).
//
// Escape hatch. A source line (or the line below a comment-only line)
// is exempted with
//
//	//repolint:allow <name>[,<name>...] -- <reason>
//
// The reason is mandatory (§12): an escape documents WHY the invariant
// legitimately does not apply (a timeout needs the wall clock; an
// error-path Close is best-effort cleanup; a test in another package
// uses the symbol as its oracle), and a directive without one
// suppresses nothing and is reported itself.
//
// cmd/repolint compiles the suite into a multichecker usable
// standalone (`go run ./cmd/repolint ./...`, exit 1 on findings) and
// as a vet tool (`go vet -vettool=$(which repolint) ./...`). The
// clean-tree invariant — the suite reports nothing on this repository
// — is enforced by TestRepoTreeIsClean in this package, so it is part
// of tier-1, not just CI.
package analysis
