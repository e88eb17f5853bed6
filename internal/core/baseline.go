package core

import (
	"repro/internal/mpi"
	"repro/internal/nn"
)

// DataParallelResult is the outcome of the Viviani-style baseline [4]:
// classic data-parallel training in which every rank holds a replica
// of one whole-domain network, trains on a shard of the data, and the
// replicas' weights are averaged with a global reduction every epoch.
// The paper contrasts its scheme against exactly this design: the
// averaging "alters the learning algorithm resulting in decreased
// learning" and "the global reduction operations are potential
// performance bottlenecks".
type DataParallelResult struct {
	// Model is the final averaged network (identical on all ranks).
	Model *nn.Sequential
	// History is the per-epoch mean training loss averaged over ranks.
	History []float64
	// WallSeconds is the wall-clock time of the whole run.
	WallSeconds float64
	// CommStats aggregates the allreduce traffic — nonzero, unlike the
	// paper's scheme.
	CommStats mpi.CommStats
	// Ranks is the number of replicas used.
	Ranks int
}

// FinalLoss returns the last epoch's loss.
func (r *DataParallelResult) FinalLoss() float64 {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1]
}
