// Command benchdiff is the CI bench-regression gate: it compares a
// candidate benchmark snapshot (scripts/bench.sh output) against the
// committed BENCH_baseline.json and exits non-zero when throughput
// drops or allocations grow beyond the allowed envelope.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -candidate bench.json
//
// Gates (per benchmark present in both files):
//
//   - throughput (the steps_per_s / requests_per_s metrics) must not
//     drop more than -max-drop-pct (default 15%);
//   - allocs_per_op must not grow more than -max-alloc-growth-pct
//     (default 10%) — allocation counts are deterministic, so this is
//     the noise-free half of the gate. A zero-alloc baseline is gated
//     absolutely: any allocation at all is a regression, since the
//     percentage threshold is meaningless against zero.
//
// Wall-clock metrics (ns_per_op) are reported but never gated: shared
// CI runners make them too noisy for a hard threshold. Benchmarks
// missing from either side and a Go-version mismatch are warnings,
// not failures, so adding or retiring a benchmark doesn't wedge CI.
// When the baseline was captured on a single-CPU host (cpus == 1 in
// the snapshot), throughput drops on session-scaling variants (names
// containing "sessions=") are downgraded to warnings: a 1-CPU baseline encodes no scaling information, so the
// delta measures the host, not the change under review.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
)

// BenchFile mirrors the JSON scripts/bench.sh writes.
type BenchFile struct {
	Generated  string      `json:"generated"`
	Go         string      `json:"go"`
	CPU        string      `json:"cpu"`
	CPUs       int         `json:"cpus"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark line: its name (GOMAXPROCS suffix already
// stripped) and the metric columns keyed by sanitized unit.
type Benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// throughputKeys are the higher-is-better metrics the drop gate
// applies to.
var throughputKeys = []string{"steps_per_s", "requests_per_s"}

// Finding is one gate decision for one metric of one benchmark.
type Finding struct {
	Bench  string
	Metric string
	Base   float64
	Cand   float64
	// DeltaPct is the relative change in percent, signed so that
	// negative is worse for throughput and positive is worse for
	// allocations. +Inf when allocations appear on a zero baseline.
	DeltaPct float64
	// Regression marks findings that breach their gate.
	Regression bool
	// Warning marks findings that would breach their gate but are
	// downgraded because the baseline can't support the comparison —
	// today that is session-scaling throughput measured against a
	// baseline captured on a single-CPU box, where scaling curves are
	// flat by construction and the delta measures the host, not the
	// code.
	Warning bool
}

func (f Finding) String() string {
	verdict := "ok"
	switch {
	case f.Regression:
		verdict = "REGRESSION"
	case f.Warning:
		verdict = "WARN (1-cpu baseline)"
	}
	return fmt.Sprintf("%-60s %-16s %12.4g -> %-12.4g %+7.2f%%  %s",
		f.Bench, f.Metric, f.Base, f.Cand, f.DeltaPct, verdict)
}

// sessionScaling reports whether a benchmark name is a
// session-scaling variant — the sub-benchmarks whose whole point is
// how throughput changes with parallelism.
func sessionScaling(name string) bool {
	return strings.Contains(name, "sessions=")
}

// Compare applies the gates to every benchmark present in both files
// and returns the per-metric findings plus the names only one side
// has (warnings, not failures).
func Compare(baseline, candidate BenchFile, maxDropPct, maxAllocGrowthPct float64) (findings []Finding, onlyBase, onlyCand []string) {
	cand := make(map[string]Benchmark, len(candidate.Benchmarks))
	for _, b := range candidate.Benchmarks {
		cand[b.Name] = b
	}
	seen := make(map[string]bool, len(baseline.Benchmarks))
	for _, base := range baseline.Benchmarks {
		seen[base.Name] = true
		c, ok := cand[base.Name]
		if !ok {
			onlyBase = append(onlyBase, base.Name)
			continue
		}
		for _, key := range throughputKeys {
			bv, bok := base.Metrics[key]
			cv, cok := c.Metrics[key]
			if !bok || !cok || bv <= 0 {
				continue
			}
			delta := (cv - bv) / bv * 100
			f := Finding{
				Bench: base.Name, Metric: key, Base: bv, Cand: cv,
				DeltaPct: delta, Regression: delta < -maxDropPct,
			}
			// A 1-CPU baseline has nothing to say about scaling
			// behaviour: every sessions=N variant collapses
			// onto the serial curve, so a later multi-core (or
			// differently loaded single-core) run comparing against it
			// measures the host. Surface the delta, don't gate on it.
			if f.Regression && baseline.CPUs == 1 && sessionScaling(base.Name) {
				f.Regression = false
				f.Warning = true
			}
			findings = append(findings, f)
		}
		if bv, bok := base.Metrics["allocs_per_op"]; bok {
			if cv, cok := c.Metrics["allocs_per_op"]; cok {
				f := Finding{Bench: base.Name, Metric: "allocs_per_op", Base: bv, Cand: cv}
				if bv > 0 {
					f.DeltaPct = (cv - bv) / bv * 100
					f.Regression = f.DeltaPct > maxAllocGrowthPct
				} else if cv > 0 {
					// A zero-alloc baseline is a property, not a
					// quantity: any allocation at all breaks it, so the
					// growth threshold doesn't apply.
					f.DeltaPct = math.Inf(1)
					f.Regression = true
				}
				findings = append(findings, f)
			}
		}
	}
	for _, c := range candidate.Benchmarks {
		if !seen[c.Name] {
			onlyCand = append(onlyCand, c.Name)
		}
	}
	return findings, onlyBase, onlyCand
}

func load(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return f, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		basePath  = flag.String("baseline", "BENCH_baseline.json", "committed baseline snapshot")
		candPath  = flag.String("candidate", "", "fresh scripts/bench.sh output to gate")
		maxDrop   = flag.Float64("max-drop-pct", 15, "max allowed throughput drop (steps_per_s, requests_per_s)")
		maxAllocs = flag.Float64("max-alloc-growth-pct", 10, "max allowed allocs_per_op growth")
	)
	flag.Parse()
	if *candPath == "" {
		log.Fatal("-candidate is required (a scripts/bench.sh snapshot)")
	}
	baseline, err := load(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	candidate, err := load(*candPath)
	if err != nil {
		log.Fatal(err)
	}
	if baseline.Go != "" && candidate.Go != "" && baseline.Go != candidate.Go {
		log.Printf("warning: go version mismatch (baseline %s, candidate %s) — deltas may reflect the toolchain, not the code", baseline.Go, candidate.Go)
	}

	findings, onlyBase, onlyCand := Compare(baseline, candidate, *maxDrop, *maxAllocs)
	bad, warned := 0, 0
	for _, f := range findings {
		fmt.Println(f)
		if f.Regression {
			bad++
		}
		if f.Warning {
			warned++
		}
	}
	if warned > 0 {
		log.Printf("warning: %d session-scaling throughput drop(s) not gated — the baseline was captured on a 1-CPU host and carries no scaling signal", warned)
	}
	for _, name := range onlyBase {
		log.Printf("warning: %s in baseline only (benchmark removed?)", name)
	}
	for _, name := range onlyCand {
		log.Printf("warning: %s in candidate only (regenerate the baseline to start tracking it)", name)
	}
	if bad > 0 {
		log.Fatalf("%d of %d gated metrics regressed beyond the envelope (throughput drop > %g%% or alloc growth > %g%%)",
			bad, len(findings), *maxDrop, *maxAllocs)
	}
	fmt.Printf("benchdiff: %d gated metrics within the envelope\n", len(findings))
}
