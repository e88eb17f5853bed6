package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/euler"
	"repro/internal/model"
)

// tinyDataset builds a small normalized dataset for fast tests.
func tinyDataset(t *testing.T, n, snaps int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenConfig{Euler: euler.DefaultConfig(n), NumSnapshots: snaps})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := dataset.FitMinMax(d, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.NormalizeDataset(d, norm)
}

// tinyCfg returns a fast training config for tests.
func tinyCfg() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 4
	return cfg
}

func TestTrainConfigValidate(t *testing.T) {
	if err := DefaultTrainConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero epochs accepted")
	}
	bad = DefaultTrainConfig()
	bad.Optimizer = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("bad optimizer accepted")
	}
	bad = DefaultTrainConfig()
	bad.Loss = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("bad loss accepted")
	}
	bad = DefaultTrainConfig()
	bad.BatchSize = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestFactories(t *testing.T) {
	for _, name := range []string{"", "adam", "sgd", "momentum", "rmsprop"} {
		if _, err := NewOptimizer(name, 0.01); err != nil {
			t.Errorf("optimizer %q: %v", name, err)
		}
	}
	for _, name := range []string{"", "mape", "mse", "mae", "smape", "huber"} {
		if _, err := NewLoss(name); err != nil {
			t.Errorf("loss %q: %v", name, err)
		}
	}
}

func TestTrainSequentialLearns(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	cfg := tinyCfg()
	cfg.Epochs = 15
	cfg.Loss = "mse"
	par, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	res := &par.Ranks[0]
	if len(res.History) != 15 {
		t.Fatalf("history length %d", len(res.History))
	}
	first, last := res.History[0], res.FinalLoss()
	if !(last < first) {
		t.Fatalf("loss did not decrease: %g → %g", first, last)
	}
	if res.Seconds <= 0 {
		t.Fatalf("no time measured")
	}
	if res.Block.Width() != 16 || res.Block.Height() != 16 {
		t.Fatalf("sequential block %v", res.Block)
	}
}

func TestTrainParallelCriticalPath(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	res, err := trainParallel(ds, 2, 2, tinyCfg(), CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 4 {
		t.Fatalf("ranks = %d", len(res.Ranks))
	}
	// The paper's central claim: zero communication during training.
	if res.TrainCommStats.MessagesSent != 0 || res.TrainCommStats.BytesSent != 0 {
		t.Fatalf("training communicated: %+v", res.TrainCommStats)
	}
	if res.CriticalPathSeconds <= 0 || res.TotalComputeSeconds < res.CriticalPathSeconds {
		t.Fatalf("timing inconsistent: crit %g total %g", res.CriticalPathSeconds, res.TotalComputeSeconds)
	}
	if res.Speedup() < 1 {
		t.Fatalf("speedup %g < 1", res.Speedup())
	}
	for r, rr := range res.Ranks {
		if rr.Model == nil || rr.Rank != r {
			t.Fatalf("rank %d result malformed", r)
		}
		if math.IsNaN(rr.FinalLoss()) {
			t.Fatalf("rank %d loss NaN", r)
		}
	}
}

func TestTrainParallelConcurrentMatchesCriticalPath(t *testing.T) {
	// Both execution modes must produce bit-identical models (same
	// per-rank seeds, no cross-rank coupling).
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	a, err := trainParallel(ds, 2, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainParallel(ds, 2, 1, cfg, Concurrent)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent mode also trains without messages.
	if b.TrainCommStats.MessagesSent != 0 {
		t.Fatalf("concurrent training communicated: %+v", b.TrainCommStats)
	}
	for r := range a.Ranks {
		pa := a.Ranks[r].Model.Params()
		pb := b.Ranks[r].Model.Params()
		for i := range pa {
			if !pa[i].Value.Equal(pb[i].Value) {
				t.Fatalf("rank %d param %d differs between exec modes", r, i)
			}
		}
	}
}

func TestTrainParallelDeterministic(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	a, _ := trainParallel(ds, 2, 2, cfg, CriticalPath)
	b, _ := trainParallel(ds, 2, 2, cfg, CriticalPath)
	for r := range a.Ranks {
		if a.Ranks[r].FinalLoss() != b.Ranks[r].FinalLoss() {
			t.Fatalf("rank %d losses differ between identical runs", r)
		}
	}
}

func TestTrainParallelRanksIndependent(t *testing.T) {
	// Training with 2x1 vs training rank 0 alone must give the same
	// rank-0 model: ranks share nothing.
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	full, err := trainParallel(ds, 2, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	// Re-train only rank 0 by hand.
	p := full.Partition
	halo := cfg.Model.Halo()
	samples := dataset.SubdomainSamples(ds, p, 0, halo)
	ms, ss := rankSeeds(cfg, 0)
	m, _, err := (&Trainer{cfg: cfg, px: 1, py: 1}).trainOne(context.Background(), samples, cfg, ms, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa := full.Ranks[0].Model.Params()
	pb := m.Params()
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value) {
			t.Fatalf("rank 0 model depends on other ranks (param %d)", i)
		}
	}
}

func TestTrainParallelValidation(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	if _, err := trainParallel(ds, 32, 1, tinyCfg(), CriticalPath); err == nil {
		t.Fatal("oversubscribed partition accepted")
	}
	cfg := tinyCfg()
	cfg.Model.Strategy = model.InnerCrop
	// 16/2 = 8 < MinInputSize 17 for inner-crop.
	if _, err := trainParallel(ds, 2, 2, cfg, CriticalPath); err == nil {
		t.Fatal("too-small blocks for inner-crop accepted")
	}
	if _, err := trainParallel(ds, 1, 1, tinyCfg(), ExecMode(9)); err == nil {
		t.Fatal("invalid exec mode accepted")
	}
}

func TestAllStrategiesTrain(t *testing.T) {
	ds := tinyDataset(t, 20, 5)
	// Same-size strategies decompose freely.
	for _, strat := range []model.Strategy{model.ZeroPad, model.NeighborPad} {
		cfg := tinyCfg()
		cfg.Epochs = 2
		cfg.Model.Strategy = strat
		res, err := trainParallel(ds, 2, 1, cfg, CriticalPath)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if math.IsNaN(res.Ranks[0].FinalLoss()) {
			t.Fatalf("%v: NaN loss", strat)
		}
	}
	// The all-valid stacks need blocks ≥ 17: train 1x1 on the 20-grid.
	for _, strat := range []model.Strategy{model.InnerCrop, model.TransposeConv} {
		cfg := tinyCfg()
		cfg.Epochs = 2
		cfg.Model.Strategy = strat
		res, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
		if err != nil {
			t.Fatalf("%v on full domain: %v", strat, err)
		}
		if math.IsNaN(res.Ranks[0].FinalLoss()) {
			t.Fatalf("%v: NaN loss", strat)
		}
		// And a decomposition with too-small blocks is rejected.
		if _, err := trainParallel(ds, 2, 1, cfg, CriticalPath); err == nil {
			t.Fatalf("%v: 10-wide blocks accepted (min is 17)", strat)
		}
	}
}

func TestExecModeString(t *testing.T) {
	if CriticalPath.String() == "" || Concurrent.String() == "" || ExecMode(9).String() == "" {
		t.Fatal("empty ExecMode name")
	}
}
