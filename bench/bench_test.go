package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// shortEnv is the smallest configuration the 2×2 NeighborPad network
// accepts; no test asserts a time.
func shortEnv(t *testing.T, seed int64, traced bool) *env {
	t.Helper()
	e := &env{seed: seed, sz: shortSizes, dir: t.TempDir()}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// fixedWork runs a fixed number of ops, so counts compare exactly: 12
// is one whole Train call of train_p4 at the short sizes.
var fixedWork = plan{blocks: 2, blockOps: 6}

func readBenchmarkFile(t *testing.T) (benchmarkFile, string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f, string(data)
}

// TestBenchmarkFile holds BENCHMARK.json to the declarations in
// specs.go and to the limits of the benchmark contract.
func TestBenchmarkFile(t *testing.T) {
	f, text := readBenchmarkFile(t)
	if text != describe() {
		t.Error("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	if n := len(f.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented; the contract allows 2 to 8", n, len(workloads))
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	if f.RunSeconds != runSeconds || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range f.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range f.PerLayer {
		check(m.Name, m.Unit)
	}
}

// sameNames fails unless res holds exactly the declared metrics with
// their declared units.
func sameNames(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	for n, u := range want {
		if got, ok := res.Metrics[n]; !ok {
			t.Errorf("declared metric %s was not emitted", n)
		} else if got.Unit != u {
			t.Errorf("%s emitted in %q, declared in %q", n, got.Unit, u)
		}
	}
	for n := range res.Metrics {
		if _, ok := want[n]; !ok {
			t.Errorf("emitted metric %s is not declared", n)
		}
	}
}

// TestShortPass runs every workload end to end at the short sizes:
// every correctness check must pass and exactly the declared
// end-to-end metrics must come out.
func TestShortPass(t *testing.T) {
	f, _ := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range f.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := measure(w, shortEnv(t, 1, false), fixedWork, false)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.failed != 0 || out.attempted != fixedWork.blocks*fixedWork.blockOps {
				t.Fatalf("correct %v, %d of %d ops failed", out.correct, out.failed, out.attempted)
			}
			res, err := out.result(false)
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, res, want)
		})
	}
}

// TestTracedPass makes the traced run of the HTTP workload: exactly the
// declared per-layer metrics come out, and the stage budget is computed
// from spans whose parents all resolve.
func TestTracedPass(t *testing.T) {
	f, _ := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range f.PerLayer {
		want[m.Name] = m.Unit
	}
	w, _ := findWorkload("predict_http")
	e := shortEnv(t, 1, true)
	out, err := measure(w, e, fixedWork, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct {
		t.Fatalf("%d of %d ops failed", out.failed, out.attempted)
	}
	res, err := out.result(true)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, res, want)

	spans := e.tr.snapshot()
	byKey := map[[2]string]bool{}
	for _, s := range spans {
		byKey[[2]string{s.Name, s.ID}] = true
	}
	chains := 0
	for _, s := range spans {
		if s.Parent != "" && !byKey[[2]string{s.Parent, s.ID}] {
			t.Errorf("span %s of %s: parent %s does not resolve", s.Name, s.ID, s.Parent)
		}
		if s.Name == spanReplica {
			chains++
		}
	}
	if chains == 0 {
		t.Error("no replica spans: the wrappers were not on the request path")
	}
	if c := out.values["stage.closure"]; !(c > 0.5 && c < 1.5) {
		t.Errorf("stage.closure = %v", c)
	}
	for _, name := range []string{"core.trainer.comm_bytes", "admission.shed", "router.retries"} {
		if v := out.values[name]; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}

// TestSeedChangesInputsNotWork runs two seeds: the amount of work (ops,
// halo bytes and messages, training traffic) is identical, what is
// computed is not.
func TestSeedChangesInputsNotWork(t *testing.T) {
	same := map[string][]string{
		"train_p4":       {"train.comm_bytes", "train.calls"},
		"rollout_p4":     {"rollout.halo_bytes_per_step", "rollout.halo_msgs_per_step"},
		"predict_engine": nil,
		"predict_http":   {"http.router_retries", "http.batch_fill"},
	}
	differ := map[string]string{
		"train_p4":       "train.final_loss",
		"rollout_p4":     "rollout.frames_checksum",
		"predict_engine": "predict.golden_checksum",
		"predict_http":   "http.golden_hashes",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var outs [2]*outcome
			for i := range outs {
				var err error
				if outs[i], err = measure(w, shortEnv(t, int64(i+1), false), fixedWork, false); err != nil {
					t.Fatal(err)
				}
			}
			if outs[0].attempted != outs[1].attempted || outs[0].failed != 0 || outs[1].failed != 0 {
				t.Errorf("ops: seed 1 %d (%d failed), seed 2 %d (%d failed)",
					outs[0].attempted, outs[0].failed, outs[1].attempted, outs[1].failed)
			}
			for _, k := range same[w.name] {
				if outs[0].facts[k] != outs[1].facts[k] {
					t.Errorf("%s depends on the seed: %v, %v", k, outs[0].facts[k], outs[1].facts[k])
				}
			}
			if k := differ[w.name]; outs[0].facts[k] == outs[1].facts[k] {
				t.Errorf("%s is %v for both seeds: the seed does not reach the inputs", k, outs[0].facts[k])
			}
		})
	}
}

// TestFailedOpsAreCounted injects a wrong golden hash, then a cancelled
// context: both kinds of failure are counted, and the failed ops stay
// in the latency sample.
func TestFailedOpsAreCounted(t *testing.T) {
	r, err := setupPredictHTTP(shortEnv(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	h := r.(*httpRunner)

	h.golden[0][0] ^= 0xff
	rec := newRecorder(plan{blocks: 2, blockOps: nInputs})
	h.run(rec)
	if rec.attempted != 2*nInputs || rec.failed != 2 {
		t.Errorf("wrong golden: %d of %d ops failed, want 2 of %d", rec.failed, rec.attempted, 2*nInputs)
	}
	if st := rec.stats(); st.ops != 2*nInputs {
		t.Errorf("latency sample holds %d ops, want %d", st.ops, 2*nInputs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.ctx = ctx
	rec = newRecorder(plan{blocks: 1, blockOps: 3})
	h.run(rec)
	if rec.attempted != 3 || rec.failed != 3 {
		t.Errorf("cancelled context: %d of %d ops failed, want 3 of 3", rec.failed, rec.attempted)
	}
	if st := rec.stats(); st.ops != 3 {
		t.Errorf("latency sample holds %d ops, want 3", st.ops)
	}
}

// TestRecorderBlocks checks the block arithmetic on made-up latencies.
func TestRecorderBlocks(t *testing.T) {
	rec := newRecorder(plan{blocks: 4, blockTime: 100 * time.Millisecond})
	// Four blocks of two 50 ms ops, one of them with a slow op.
	for _, ms := range []int{50, 50, 50, 150, 50, 50, 50, 50, 999} {
		rec.add(time.Duration(ms)*time.Millisecond, true)
	}
	if !rec.full() || rec.attempted != 8 {
		t.Fatalf("full %v after %d ops, want 8 (the ninth is past the end)", rec.full(), rec.attempted)
	}
	st := rec.stats()
	if st.opsPerS != 20 {
		t.Errorf("ops_per_s = %v, want 20: one slow block must not move the upper quartile", st.opsPerS)
	}
	if st.p50ms != 50 {
		t.Errorf("op_p50_ms = %v, want 50", st.p50ms)
	}
	rec.fail(3)
	if rec.failed != 3 {
		t.Errorf("failed = %d, want 3", rec.failed)
	}
}
