package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload in a fresh process of this same binary, so
// that setup_s and rss_mb are the workload's own, and returns its
// result line; show prints the child's report.
func child(name string, seed int64, seconds float64, trace int, dir string, show bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-dir", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	i := strings.LastIndexByte(text, '\n')
	if show {
		fmt.Println(text[:max(i, 0)])
	}
	var res result
	if err := json.Unmarshal([]byte(text[i+1:]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runAll is the plain run: every workload untraced, then, with
// -trace 1, every workload traced. It fails if any op failed.
func runAll(seed int64, seconds float64, trace int, dir string) error {
	failed := 0
	for t := 0; t <= trace; t++ {
		for _, w := range workloads {
			res, err := child(w.name, seed, seconds, t, dir, true)
			if err != nil {
				return err
			}
			failed += res.Failed
			if !res.Correct {
				failed = max(failed, 1)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// selfCheck runs the four workloads as two interleaved sets, A B A B,
// three runs a side, on the same code, and compares the sets' medians
// with the bound of every end-to-end metric: what the benchmark calls
// a regression must not happen between two runs of one program.
func selfCheck(seed int64, seconds float64, dir string) error {
	const perSide = 3
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failedOps := 0
	for round := 0; round < perSide; round++ {
		for side := 0; side < 2; side++ {
			for _, w := range workloads {
				res, err := child(w.name, seed, seconds, 0, dir, false)
				if err != nil {
					return err
				}
				failedOps += res.Failed
				for name, m := range res.Metrics {
					k := key{w.name, name}
					sets[side][k] = append(sets[side][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: round %d side %c %s done\n", round+1, 'A'+side, w.name)
			}
		}
	}
	fmt.Printf("%-15s %-12s %14s %14s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "bound")
	bad := 0
	for _, w := range workloads {
		for _, s := range e2eSpecs {
			a, b := median(sets[0][key{w.name, s.Name}]), median(sets[1][key{w.name, s.Name}])
			diff := (b - a) / a
			if s.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > s.Bound || -diff > s.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-15s %-12s %14.6g %14.6g %+7.2f%% %5.0f%%%s\n", w.name, s.Name, a, b, 100*diff, 100*s.Bound, verdict)
		}
	}
	fmt.Printf("failed ops: %d\n", failedOps)
	if bad > 0 || failedOps > 0 {
		return fmt.Errorf("%d metric(s) moved by more than their bound between two sets of runs of the same code; %d ops failed", bad, failedOps)
	}
	return nil
}
