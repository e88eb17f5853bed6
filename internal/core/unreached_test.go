package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because a test
// in this package is about it: the per-step rollout scorer. Delete it
// together with the test CHANGES.md (PR 24) lists for it.

// EvaluateRollout rolls the ensemble out over the dataset's trailing
// snapshots and returns the per-step aggregate metrics: entry k
// compares the k+1-step prediction against the true snapshot. The
// rollout starts from the dataset's first Window snapshots and streams
// through a Session, so memory stays O(1) in steps.
func EvaluateRollout(e *Ensemble, ds *dataset.Dataset, steps int) ([]stats.Metrics, error) {
	eng, err := NewEngine(e)
	if err != nil {
		return nil, err
	}
	window := e.window()
	if ds.Len() < window+steps {
		return nil, fmt.Errorf("core: dataset of %d snapshots cannot score a %d-step rollout with window %d", ds.Len(), steps, window)
	}
	ctx := context.Background()
	ses, err := eng.NewSession(ctx, ds.Snapshots[:window]...)
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	out := make([]stats.Metrics, steps)
	if err := ses.Run(ctx, steps, func(k int, frame *tensor.Tensor) error {
		out[k] = stats.Compute(frame, ds.Snapshots[window+k])
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
