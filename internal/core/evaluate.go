package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// EvaluateOneStep runs the ensemble's one-step prediction over every
// admissible (history → next) pair of the dataset and returns the
// per-channel metrics plus the all-channel aggregate — the Fig. 3
// evaluation protocol as a library call. For temporal-window
// ensembles the first Window-1 snapshots seed histories only.
func EvaluateOneStep(e *Ensemble, ds *dataset.Dataset) (perChannel []stats.Metrics, overall stats.Metrics, err error) {
	eng, err := NewEngine(e)
	if err != nil {
		return nil, stats.Metrics{}, err
	}
	window := e.window()
	if ds.Len() < window+1 {
		return nil, stats.Metrics{}, fmt.Errorf("core: dataset of %d snapshots cannot evaluate window %d", ds.Len(), window)
	}
	ctx := context.Background()
	var preds, tgts []*tensor.Tensor
	for i := window - 1; i+1 < ds.Len(); i++ {
		pred, err := eng.Predict(ctx, ds.Snapshots[i-window+1:i+1]...)
		if err != nil {
			return nil, stats.Metrics{}, err
		}
		preds = append(preds, pred)
		tgts = append(tgts, ds.Snapshots[i+1])
	}
	pb := tensor.Stack(preds)
	tb := tensor.Stack(tgts)
	return stats.PerChannel(pb, tb), stats.Compute(pb, tb), nil
}
