package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// maxTimedPhase aborts a timed phase that has stopped making progress
// (README noise rule 1).
const maxTimedPhase = 90 * time.Second

var errPhaseTooLong = errors.New("timed phase exceeded 90 s")

// plan says how the timed phase is cut into blocks. A block closes once
// the ops recorded in it have taken blockTime in total; the benchmark's
// tests set blockOps instead, so that a run does a fixed amount of
// work.
type plan struct {
	blocks    int
	blockTime time.Duration
	blockOps  int
}

// planFor cuts `seconds` of measurement into 24 blocks.
func planFor(seconds float64) plan {
	const blocks = 24
	return plan{blocks: blocks, blockTime: time.Duration(seconds / blocks * float64(time.Second))}
}

// recorder collects the latency of every timed op, in order, in
// blocks. A failed op stays in the latency sample and is counted in
// failed: dropping it would make a system that fails fast look fast.
type recorder struct {
	plan      plan
	start     time.Time
	blocks    [][]float64 // closed blocks, op latencies in seconds
	cur       []float64
	curSum    float64
	attempted int
	failed    int
	rssMB     []float64 // resident set at the end of every block
	err       error     // set when the phase was aborted
}

func newRecorder(p plan) *recorder { return &recorder{plan: p, start: time.Now()} }

// full reports whether the timed phase is over.
func (r *recorder) full() bool { return r.err != nil || len(r.blocks) >= r.plan.blocks }

// add records one op. Ops offered after the phase is over are ignored.
func (r *recorder) add(d time.Duration, ok bool) {
	if r.full() {
		return
	}
	r.attempted++
	if !ok {
		r.failed++
	}
	r.cur = append(r.cur, d.Seconds())
	r.curSum += d.Seconds()
	closed := r.curSum >= r.plan.blockTime.Seconds()
	if r.plan.blockOps > 0 {
		closed = len(r.cur) >= r.plan.blockOps
	}
	if closed {
		r.blocks = append(r.blocks, r.cur)
		r.cur, r.curSum = nil, 0
		if mb, err := procStatusMB("VmRSS:"); err == nil {
			r.rssMB = append(r.rssMB, mb)
		}
	} else if time.Since(r.start) > maxTimedPhase {
		r.err = errPhaseTooLong
	}
}

// fail marks n more of the recorded ops as failed, for checks that can
// only be made after a group of ops has ended.
func (r *recorder) fail(n int) {
	r.failed = min(r.failed+n, r.attempted)
}

// blockStats are the block-quartile statistics of README noise rule 2:
// a neighbour on the host only ever slows a block down, so the better
// quartile of the blocks is closer to what the program does than their
// median, and moves as much when the program itself changes.
type blockStats struct {
	opsPerS     float64 // upper quartile over blocks of ops / time in block
	p50ms       float64 // lower quartile over blocks of the block's median latency
	p90ms       float64 // over all ops; reported, never gated
	p99ms       float64
	blockSpread float64 // IQR / median of the block throughputs
	ops         int
	seconds     float64   // time spent inside timed ops
	tput        []float64 // per block, in order
	p50s        []float64
	rssMB       []float64
}

func (r *recorder) stats() blockStats {
	var tput, p50, all []float64
	var total float64
	for _, b := range r.blocks {
		sum := 0.0
		for _, v := range b {
			sum += v
		}
		total += sum
		tput = append(tput, float64(len(b))/sum)
		p50 = append(p50, median(b)*1e3)
		all = append(all, b...)
	}
	return blockStats{
		opsPerS:     quantile(tput, 0.75),
		p50ms:       quantile(p50, 0.25),
		p90ms:       quantile(all, 0.90) * 1e3,
		p99ms:       quantile(all, 0.99) * 1e3,
		blockSpread: spread(tput),
		ops:         len(all),
		seconds:     total,
		tput:        tput,
		p50s:        p50,
		rssMB:       r.rssMB,
	}
}

// usage is a snapshot of what the process has consumed so far; two of
// them bracket the timed phase.
type usage struct {
	cpu    time.Duration // user + system
	bytes  uint64
	allocs uint64
	gcs    uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:  ms.TotalAlloc,
		allocs: ms.Mallocs,
		gcs:    ms.NumGC,
	}
}

// procStatusMB reads one kB-valued field of /proc/self/status, in MB:
// "VmRSS:" is the resident set now, "VmHWM:" its high-water mark since
// the process started.
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(field)); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

var calibSink float64

// calibMS times a fixed scalar multiply-add and copy loop that calls no
// code of the repository. It runs before and after the timed phase: if
// the two differ, the host changed speed, not the program.
func calibMS() float64 {
	const n = 1 << 16
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i%97) * 0.01
	}
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		acc := 0.0
		for pass := 0; pass < 40; pass++ {
			for i := range a {
				acc = acc*0.999 + a[i]
			}
			copy(b, a)
		}
		calibSink += acc + b[n-1]
		if d := time.Since(t0).Seconds() * 1e3; rep == 0 || d < best {
			best = d
		}
	}
	return best
}
