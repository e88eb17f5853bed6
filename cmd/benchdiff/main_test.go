package main

import "testing"

func file(names ...Benchmark) BenchFile {
	return BenchFile{Go: "go1.24.0", Benchmarks: names}
}

func bench(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Metrics: metrics}
}

func regressions(findings []Finding) map[string]string {
	out := map[string]string{}
	for _, f := range findings {
		if f.Regression {
			out[f.Bench+"/"+f.Metric] = f.String()
		}
	}
	return out
}

// TestCompareFlagsSlowedThroughput is the gate's reason to exist: a
// benchmark whose steps_per_s dropped more than the envelope (here an
// artificial 2x slowdown) must be flagged, while one inside the
// envelope must not.
func TestCompareFlagsSlowedThroughput(t *testing.T) {
	baseline := file(
		bench("BenchmarkRollout/mem", map[string]float64{"steps_per_s": 260, "allocs_per_op": 5400}),
		bench("BenchmarkBatcher/max=8", map[string]float64{"requests_per_s": 1000, "allocs_per_op": 100}),
	)
	candidate := file(
		bench("BenchmarkRollout/mem", map[string]float64{"steps_per_s": 130, "allocs_per_op": 5400}), // halved
		bench("BenchmarkBatcher/max=8", map[string]float64{"requests_per_s": 950, "allocs_per_op": 100}),
	)
	findings, _, _ := Compare(baseline, candidate, 15, 10)
	bad := regressions(findings)
	if len(bad) != 1 {
		t.Fatalf("want exactly the slowed benchmark flagged, got %v", bad)
	}
	if _, ok := bad["BenchmarkRollout/mem/steps_per_s"]; !ok {
		t.Fatalf("halved steps_per_s not flagged: %v", bad)
	}
}

// TestCompareFlagsAllocGrowth asserts the deterministic half of the
// gate: allocs_per_op growth past the envelope fails, shrinkage and
// small growth pass.
func TestCompareFlagsAllocGrowth(t *testing.T) {
	baseline := file(
		bench("BenchmarkConv", map[string]float64{"allocs_per_op": 250}),
		bench("BenchmarkLayer", map[string]float64{"allocs_per_op": 40}),
	)
	candidate := file(
		bench("BenchmarkConv", map[string]float64{"allocs_per_op": 300}), // +20%
		bench("BenchmarkLayer", map[string]float64{"allocs_per_op": 42}), // +5%
	)
	findings, _, _ := Compare(baseline, candidate, 15, 10)
	bad := regressions(findings)
	if len(bad) != 1 {
		t.Fatalf("want exactly the alloc-heavy benchmark flagged, got %v", bad)
	}
	if _, ok := bad["BenchmarkConv/allocs_per_op"]; !ok {
		t.Fatalf("+20%% allocs not flagged: %v", bad)
	}
}

// TestCompareCleanRunPasses asserts identical snapshots (and mild
// improvements) produce zero regressions.
func TestCompareCleanRunPasses(t *testing.T) {
	baseline := file(
		bench("BenchmarkRollout", map[string]float64{"steps_per_s": 260, "allocs_per_op": 5400, "ns_per_op": 3e7}),
	)
	candidate := file(
		bench("BenchmarkRollout", map[string]float64{"steps_per_s": 280, "allocs_per_op": 5300, "ns_per_op": 9e7}),
	)
	findings, _, _ := Compare(baseline, candidate, 15, 10)
	if bad := regressions(findings); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	// ns_per_op tripled above — wall clock must never gate.
	for _, f := range findings {
		if f.Metric == "ns_per_op" {
			t.Fatalf("wall-clock metric gated: %v", f)
		}
	}
}

// TestCompareZeroAllocBaselineIsAbsolute asserts that a benchmark
// whose baseline records zero allocations is gated on any allocation
// at all — the percentage envelope can't express growth from zero, and
// the zero-alloc steady state is a property worth pinning exactly.
func TestCompareZeroAllocBaselineIsAbsolute(t *testing.T) {
	baseline := file(
		bench("BenchmarkSteadyStateRollout", map[string]float64{"steps_per_s": 300, "allocs_per_op": 0}),
		bench("BenchmarkStillClean", map[string]float64{"allocs_per_op": 0}),
	)
	candidate := file(
		bench("BenchmarkSteadyStateRollout", map[string]float64{"steps_per_s": 300, "allocs_per_op": 1}),
		bench("BenchmarkStillClean", map[string]float64{"allocs_per_op": 0}),
	)
	findings, _, _ := Compare(baseline, candidate, 15, 10)
	bad := regressions(findings)
	if len(bad) != 1 {
		t.Fatalf("want exactly the newly-allocating benchmark flagged, got %v", bad)
	}
	if _, ok := bad["BenchmarkSteadyStateRollout/allocs_per_op"]; !ok {
		t.Fatalf("0 -> 1 allocs not flagged: %v", bad)
	}
}

// TestCompareOneCPUBaselineDowngradesScaling asserts session-scaling
// throughput drops are warnings, not regressions, when the baseline
// snapshot was captured on a single-CPU host — and stay hard failures
// when the baseline had real parallelism, or when the benchmark isn't
// a scaling variant.
func TestCompareOneCPUBaselineDowngradesScaling(t *testing.T) {
	bs := []Benchmark{
		bench("BenchmarkRollout/sessions=4", map[string]float64{"steps_per_s": 400}),
		bench("BenchmarkRollout/sessions=8", map[string]float64{"steps_per_s": 200}),
		bench("BenchmarkRollout/mem", map[string]float64{"steps_per_s": 260}),
	}
	cs := []Benchmark{
		bench("BenchmarkRollout/sessions=4", map[string]float64{"steps_per_s": 200}), // halved
		bench("BenchmarkRollout/sessions=8", map[string]float64{"steps_per_s": 100}), // halved
		bench("BenchmarkRollout/mem", map[string]float64{"steps_per_s": 130}),        // halved
	}

	oneCPU := BenchFile{Go: "go1.24.0", CPUs: 1, Benchmarks: bs}
	findings, _, _ := Compare(oneCPU, file(cs...), 15, 10)
	bad := regressions(findings)
	if len(bad) != 1 {
		t.Fatalf("1-cpu baseline: want only the non-scaling drop gated, got %v", bad)
	}
	if _, ok := bad["BenchmarkRollout/mem/steps_per_s"]; !ok {
		t.Fatalf("non-scaling drop not gated: %v", bad)
	}
	warned := 0
	for _, f := range findings {
		if f.Warning {
			warned++
			if !sessionScaling(f.Bench) {
				t.Fatalf("non-scaling benchmark downgraded: %v", f)
			}
		}
	}
	if warned != 2 {
		t.Fatalf("want both scaling drops downgraded to warnings, got %d", warned)
	}

	multiCPU := BenchFile{Go: "go1.24.0", CPUs: 8, Benchmarks: bs}
	findings, _, _ = Compare(multiCPU, file(cs...), 15, 10)
	if bad := regressions(findings); len(bad) != 3 {
		t.Fatalf("8-cpu baseline: all three drops must gate, got %v", bad)
	}
}

// TestCompareDisjointSetsWarnNotFail asserts added/removed benchmarks
// surface as warnings (the only* returns), never as regressions.
func TestCompareDisjointSetsWarnNotFail(t *testing.T) {
	baseline := file(bench("BenchmarkOld", map[string]float64{"steps_per_s": 100}))
	candidate := file(bench("BenchmarkNew", map[string]float64{"steps_per_s": 100}))
	findings, onlyBase, onlyCand := Compare(baseline, candidate, 15, 10)
	if len(findings) != 0 {
		t.Fatalf("disjoint sets produced findings: %v", findings)
	}
	if len(onlyBase) != 1 || onlyBase[0] != "BenchmarkOld" {
		t.Fatalf("onlyBase %v", onlyBase)
	}
	if len(onlyCand) != 1 || onlyCand[0] != "BenchmarkNew" {
		t.Fatalf("onlyCand %v", onlyCand)
	}
}
