// Command bench is the repository's end-to-end benchmark: four
// workloads, each driven by one closed-loop caller in a process of its
// own, with a separate traced run that times every module from outside.
// README.md in this directory explains the workloads, the metrics and
// the rules that keep the numbers steady.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: each of the four in a process of its own)")
		seed      = flag.Int64("seed", 1, "seed the inputs derive from: pulse centre, weight initialisation, input frames")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 = the traced run: span wrappers on, per-layer probes after the timed phase")
		dir       = flag.String("dir", ".bench_build", "scratch directory for model artifacts and spans")
		spans     = flag.String("spans", "", "with -trace 1, write the spans here (default <dir>/spans-<workload>.json)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload as two interleaved sets (A B A B) and compare their medians with the bounds")
		desc      = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *desc {
		fmt.Print(describe())
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-selfcheck]")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *dir)
	case *name == "":
		err = runAll(*seed, *seconds, *trace, *dir)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *dir, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is a single-workload run: it prints every metric it measured,
// then the result line. It returns an error, and prints no result,
// only when the run could not be made at all.
func runOne(name string, seed int64, seconds float64, traced bool, dir, spanFile string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	abs, err := scratchDir(dir)
	if err != nil {
		return err
	}
	e := &env{seed: seed, sz: fullSizes, dir: abs}
	if traced {
		e.tr = newTracer()
	}
	out, err := measure(w, e, planFor(seconds), traced)
	if err != nil {
		return err
	}
	if traced {
		if spanFile == "" {
			spanFile = filepath.Join(abs, "spans-"+name+".json")
		}
		if err := e.tr.write(spanFile); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	out.print(name)
	res, err := out.result(traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	correct           bool
	values            map[string]float64 // metrics by declared name
	facts             map[string]float64 // exact counts and checksums of the workload
	blocks            blockStats         // the untraced phase, for the per-block lines of the report
	drifted           bool
}

// phase is one timed phase and what the process consumed during it.
type phase struct {
	rec           *recorder
	st            blockStats
	before, after usage
}

// runPhase starts from a collected heap returned to the system (README
// noise rule 7) and drives r until the plan's blocks are full.
func runPhase(name string, r runner, pl plan) (*phase, error) {
	runtime.GC()
	debug.FreeOSMemory()
	p := &phase{rec: newRecorder(pl), before: readUsage()}
	r.run(p.rec)
	p.after = readUsage()
	if p.rec.err != nil {
		return nil, fmt.Errorf("%s: %w", name, p.rec.err)
	}
	if !p.rec.full() {
		return nil, fmt.Errorf("%s: the timed phase ended after %d of %d blocks", name, len(p.rec.blocks), pl.blocks)
	}
	p.st = p.rec.stats()
	return p, nil
}

// health writes the phase's run-health diagnostics into values.
func (p *phase) health(values map[string]float64) {
	n := float64(p.st.ops)
	values["e2e.op_p90_ms"] = p.st.p90ms
	values["e2e.op_p99_ms"] = p.st.p99ms
	values["e2e.cpu_ms_per_op"] = (p.after.cpu - p.before.cpu).Seconds() * 1e3 / n
	values["e2e.alloc_mb_per_op"] = float64(p.after.bytes-p.before.bytes) / n / 1e6
	values["e2e.allocs_per_op"] = float64(p.after.allocs-p.before.allocs) / n
	values["e2e.gc_per_op"] = float64(p.after.gcs-p.before.gcs) / n
	values["e2e.block_spread"] = p.st.blockSpread
}

// measure sets the workload up (several times when untraced: setup_s is
// the median) and runs the timed phase. A traced run measures a third
// as long, then as long again with spans on, then runs the per-layer
// probes.
func measure(w workload, e *env, pl plan, traced bool) (*outcome, error) {
	runtime.GOMAXPROCS(w.procs)
	reps := e.sz.setupReps
	if traced {
		reps = 1
		pl.blockTime /= 3
	}
	var r runner
	var setups []float64
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if err := r.warm(); err != nil {
			r.close()
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	closeRunner := sync.OnceFunc(r.close)
	defer closeRunner()

	calib0 := calibMS()
	ph, err := runPhase(w.name, r, pl)
	if err != nil {
		return nil, err
	}
	calib1 := calibMS()
	if len(ph.st.rssMB) == 0 {
		return nil, fmt.Errorf("%s: the resident set could not be read from /proc/self/status", w.name)
	}
	hwm, err := procStatusMB("VmHWM:")
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: ph.rec.attempted,
		failed:    ph.rec.failed,
		values: map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     ph.st.opsPerS,
			"op_p50_ms":     ph.st.p50ms,
			"rss_mb":        quantile(ph.st.rssMB, 0.75),
			"host.calib_ms": calib0,
		},
		drifted: math.Abs(calib1-calib0) > 0.10*calib0,
		blocks:  ph.st,
	}
	ph.health(out.values)
	out.facts = map[string]float64{"process.hwm_mb": hwm}
	if traced {
		// Run health describes the traced phase; its throughput against
		// the untraced phase just measured is the tracing overhead.
		e.tr.on.Store(true)
		tp, err := runPhase(w.name, r, pl)
		if err != nil {
			return nil, err
		}
		out.attempted += tp.rec.attempted
		out.failed += tp.rec.failed
		tp.health(out.values)
		out.values["e2e.trace_overhead"] = 1 - tp.st.opsPerS/ph.st.opsPerS
	}
	for k, v := range r.facts() {
		out.facts[k] = v
	}
	out.correct = out.failed == 0
	if traced {
		closeRunner() // the probes start with nothing else running in the process
		probes, err := runProbes(e)
		if err != nil {
			return nil, err
		}
		for k, v := range probes {
			out.values[k] = v
		}
	}
	return out, nil
}

// print lists every value the run produced, by name, with its unit.
func (o *outcome) print(name string) {
	units := map[string]string{}
	for _, s := range e2eSpecs {
		units[s.Name] = s.Unit
	}
	for _, s := range layerSpecs {
		units[s.Name] = s.Unit
	}
	show := func(m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s/%-36s %16.6g %s\n", name, k, m[k], units[k])
		}
	}
	show(o.values)
	show(o.facts)
	fmt.Printf("%s/%-36s %16d\n%s/%-36s %16d\n", name, "attempted", o.attempted, name, "failed", o.failed)
	fmt.Printf("%s/block ops_per_s: %.4g\n%s/block op_p50_ms: %.4g\n%s/block rss_mb: %.4g\n",
		name, o.blocks.tput, name, o.blocks.p50s, name, o.blocks.rssMB)
	if o.drifted {
		fmt.Printf("%s: host drifted: the calibration loop changed by more than 10%% across the timed phase\n", name)
	}
}

// result picks the declared metrics of the run's kind: the end-to-end
// ones for an untraced run, the per-layer ones for a traced run.
func (o *outcome) result(traced bool) (*result, error) {
	res := &result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	put := func(name, unit string) error {
		v, ok := o.values[name]
		if !ok || !finite(v) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{v, unit}
		return nil
	}
	if traced {
		for _, s := range layerSpecs {
			if err := put(s.Name, s.Unit); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	for _, s := range e2eSpecs {
		if err := put(s.Name, s.Unit); err != nil {
			return nil, err
		}
	}
	return res, nil
}
