package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/mpi"
)

// ExecMode selects how the parallel trainer executes its ranks on this
// machine.
type ExecMode int

const (
	// CriticalPath executes ranks one after another, timing each in
	// isolation, and reports max(t_r) as the parallel time. Because
	// training in the paper's scheme is communication-free, this is an
	// exact model of cluster wall-clock time and gives stable numbers
	// on a single-core machine (DESIGN.md §5). Benchmarks use this.
	CriticalPath ExecMode = iota
	// Concurrent launches one goroutine per rank through the mpi
	// runtime — real concurrent execution, demonstrating that the
	// scheme needs no synchronization. Per-rank timings then include
	// scheduler interleaving and are only meaningful on machines with
	// enough cores.
	Concurrent
)

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	switch m {
	case CriticalPath:
		return "critical-path"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("ExecMode(%d)", int(m))
}

// ParallelResult is the outcome of the paper's §III training scheme.
type ParallelResult struct {
	Partition *decomp.Partition
	Config    TrainConfig
	Ranks     []RankResult
	// CriticalPathSeconds is max over ranks of per-rank compute time —
	// the cluster wall-clock time of the scheme.
	CriticalPathSeconds float64
	// TotalComputeSeconds is the sum over ranks — the one-core time.
	TotalComputeSeconds float64
	// TrainCommStats aggregates all communication during training.
	// The paper's central claim is that this is zero; the tests
	// assert it.
	TrainCommStats mpi.CommStats
}

// Speedup returns TotalComputeSeconds / CriticalPathSeconds, the
// strong-scaling speedup the scheme achieves over one core.
func (r *ParallelResult) Speedup() float64 {
	if r.CriticalPathSeconds == 0 {
		return 0
	}
	return r.TotalComputeSeconds / r.CriticalPathSeconds
}

// Ensemble packages the trained per-subdomain networks for inference.
func (r *ParallelResult) Ensemble() *Ensemble {
	e := &Ensemble{Partition: r.Partition, ModelCfg: r.Config.Model, Window: r.Config.Window()}
	for _, rr := range r.Ranks {
		e.Models = append(e.Models, rr.Model)
	}
	return e
}

// rankSeeds derives deterministic per-rank seeds so that runs are
// reproducible and ranks are independent.
func rankSeeds(cfg TrainConfig, rank int) (modelSeed, shuffleSeed int64) {
	return cfg.Model.Seed + int64(rank)*7919, cfg.Seed + int64(rank)*104729
}

// validatePartition checks that every block is big enough for the
// model's strategy.
func validatePartition(p *decomp.Partition, cfg TrainConfig) error {
	minEdge := cfg.Model.MinInputSize()
	for r := 0; r < p.Ranks(); r++ {
		b := p.BlockOfRank(r)
		if b.Width() < minEdge || b.Height() < minEdge {
			return fmt.Errorf("core: block %v of rank %d smaller than the %v strategy's minimum %d",
				b, r, cfg.Model.Strategy, minEdge)
		}
	}
	return nil
}
