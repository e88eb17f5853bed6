package core

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// Shorthands over Trainer / Engine / Session for tests that only want
// the result of a default-context run.

func trainParallel(ds *dataset.Dataset, px, py int, cfg TrainConfig, mode ExecMode) (*ParallelResult, error) {
	t, err := NewTrainer(cfg, WithTopology(px, py), WithExecMode(mode))
	if err != nil {
		return nil, err
	}
	rep, err := t.Train(context.Background(), ds)
	if err != nil {
		return nil, err
	}
	return rep.Parallel, nil
}

func trainDataParallel(ds *dataset.Dataset, ranks int, cfg TrainConfig) (*DataParallelResult, error) {
	t, err := NewTrainer(cfg, WithDataParallel(ranks))
	if err != nil {
		return nil, err
	}
	rep, err := t.Train(context.Background(), ds)
	if err != nil {
		return nil, err
	}
	return rep.DataParallel, nil
}

// predictOneStep evaluates the ensemble on a known history through a
// throwaway engine.
func predictOneStep(e *Ensemble, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	eng, err := NewEngine(e)
	if err != nil {
		return nil, err
	}
	return eng.Predict(context.Background(), states...)
}

// rolloutResult materializes every frame of a session rollout plus its
// communication cost.
type rolloutResult struct {
	Steps         []*tensor.Tensor
	CommStats     mpi.CommStats
	HaloCommStats mpi.CommStats
}

// rollout drives a throwaway session `steps` steps from the given
// history.
func rollout(e *Ensemble, steps int, netModel *mpi.NetModel, initials ...*tensor.Tensor) (*rolloutResult, error) {
	eng, err := NewEngine(e, WithNetModel(netModel))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	ses, err := eng.NewSession(ctx, initials...)
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	res := &rolloutResult{}
	if err := ses.Run(ctx, steps, func(_ int, frame *tensor.Tensor) error {
		res.Steps = append(res.Steps, frame)
		return nil
	}); err != nil {
		return nil, err
	}
	res.CommStats = ses.CommStats()
	res.HaloCommStats = ses.HaloCommStats()
	return res, nil
}
