package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// buildRepolint compiles the multichecker once per test binary.
func buildRepolint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repolint")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// seedModule writes a throwaway module containing one detpath
// violation in a package whose import path ends in internal/tensor,
// so the analyzer's Match scoping is exercised end to end.
func seedModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module seedtest\n\ngo 1.24\n",
		filepath.Join("internal", "tensor", "bad.go"): `package tensor

import "math/rand"

// jitter uses the global RNG: exactly what detpath forbids here.
func jitter() float64 { return rand.Float64() }
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// seedReachModule writes a throwaway module whose one binary reaches
// internal/nn.Used and leaves internal/nn.planted referenced by nothing.
func seedReachModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module seedtest\n\ngo 1.24\n",
		filepath.Join("cmd", "tool", "main.go"): `package main

import "seedtest/internal/nn"

func main() { nn.Used() }
`,
		filepath.Join("internal", "nn", "nn.go"): `package nn

func Used() {}

func planted() {}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	t.Fatalf("command did not run: %v", err)
	return -1
}

// TestStandaloneCleanTree: the real repo must come back clean with
// exit status 0 — the same invariant TestRepoTreeIsClean asserts
// in-process, here through the shipped binary.
func TestStandaloneCleanTree(t *testing.T) {
	bin := buildRepolint(t)
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("repolint ./... on the real tree: exit %d\n%s", code, out)
	}
}

// TestStandaloneSeededViolation: a planted violation must flip the
// exit status to 1 and name the analyzer — this is what makes the CI
// lint job blocking rather than advisory.
func TestStandaloneSeededViolation(t *testing.T) {
	bin := buildRepolint(t)
	dir := seedModule(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("repolint on seeded module: exit %d, want 1\n%s", code, out)
	}
	s := string(out)
	if !strings.Contains(s, "global math/rand RNG") || !strings.Contains(s, "(detpath)") {
		t.Fatalf("seeded detpath violation not reported:\n%s", s)
	}
}

// TestReachSeededViolation: a package-level function planted in
// internal/nn that nothing refers to fails the lint, and the function
// the binary calls does not.
func TestReachSeededViolation(t *testing.T) {
	bin := buildRepolint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = seedReachModule(t)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("repolint on seeded module: exit %d, want 1\n%s", code, out)
	}
	s := string(out)
	if !strings.Contains(s, "func planted is reachable from no main") || !strings.Contains(s, "(reach)") {
		t.Fatalf("planted function not reported:\n%s", s)
	}
	if strings.Contains(s, "Used") {
		t.Fatalf("reached function reported:\n%s", s)
	}
}

// TestReachRootsAtBench: on the real tree reach is clean only because
// the nested bench/ module is loaded as a root — without it the names
// kept for the frozen benchmark alone are what it reports.
func TestReachRootsAtBench(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	clients, err := analysis.LoadClients(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) == 0 {
		t.Fatal("LoadClients found no nested module; bench/ should be one")
	}
	reach := []*analysis.Analyzer{analysis.Reach}
	for _, d := range analysis.Run(append(pkgs, clients...), reach) {
		t.Errorf("%s", d)
	}
	var benchOnly []string
	for _, d := range analysis.Run(pkgs, reach) {
		benchOnly = append(benchOnly, d.Message)
	}
	if s := strings.Join(benchOnly, "\n"); !strings.Contains(s, "func WithExchangeMode ") {
		t.Errorf("without bench/ as a root, core.WithExchangeMode should be unreached; got:\n%s", s)
	}
}

// TestVetToolSeededViolation drives the binary through the go vet
// -vettool protocol (-V=full / -flags / pkg.cfg) against the seeded
// module and expects the same diagnostic.
func TestVetToolSeededViolation(t *testing.T) {
	bin := buildRepolint(t)
	dir := seedModule(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on seeded module succeeded, want failure\n%s", out)
	}
	s := string(out)
	if !strings.Contains(s, "global math/rand RNG") {
		t.Fatalf("vettool run did not report the seeded violation:\n%s", s)
	}
}

// TestListFlag keeps the -list inventory in sync with the suite.
func TestListFlag(t *testing.T) {
	bin := buildRepolint(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("repolint -list: %v\n%s", err, out)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(string(out), a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out)
		}
	}
}
