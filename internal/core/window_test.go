package core

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/model"
)

// windowCfg returns a quick config with a temporal window of k.
func windowCfg(k int) TrainConfig {
	cfg := tinyCfg()
	cfg.TemporalWindow = k
	cfg.Model.Channels[0] = k * grid.NumChannels
	return cfg
}

func TestWindowConfigValidation(t *testing.T) {
	// Window set but input channels not adjusted → rejected.
	bad := tinyCfg()
	bad.TemporalWindow = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("window/channel mismatch accepted")
	}
	// Negative window rejected.
	bad = tinyCfg()
	bad.TemporalWindow = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative window accepted")
	}
	// Correctly adjusted config passes.
	if err := windowCfg(3).Validate(); err != nil {
		t.Fatal(err)
	}
	if windowCfg(3).Window() != 3 || tinyCfg().Window() != 1 {
		t.Fatal("Window() accessor wrong")
	}
}

func TestTrainParallelWindowed(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	cfg := windowCfg(3)
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Ranks[0].FinalLoss()) {
		t.Fatal("NaN loss")
	}
	if res.TrainCommStats.MessagesSent != 0 {
		t.Fatal("windowed training communicated")
	}
	e := res.Ensemble()
	if e.Window != 3 {
		t.Fatalf("ensemble window = %d", e.Window)
	}
}

func TestWindowedRolloutMatchesDirectPrediction(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	cfg := windowCfg(2)
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	states := ds.Snapshots[:2]
	direct, err := predictOneStep(e, states...)
	if err != nil {
		t.Fatal(err)
	}
	roll, err := rollout(e, 1, nil, states...)
	if err != nil {
		t.Fatal(err)
	}
	if !roll.Steps[0].Equal(direct) {
		t.Fatalf("windowed rollout != direct prediction (max diff %g)",
			roll.Steps[0].Sub(direct).AbsMax())
	}
}

func TestWindowedRolloutMultiStep(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	cfg := windowCfg(2)
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 2, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	roll, err := rollout(e, 4, nil, ds.Snapshots[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Steps) != 4 {
		t.Fatalf("steps = %d", len(roll.Steps))
	}
	for s, st := range roll.Steps {
		if st == nil || st.HasNaN() {
			t.Fatalf("step %d malformed", s)
		}
		if st.Dim(0) != grid.NumChannels {
			t.Fatalf("step %d has %d channels (history must not leak)", s, st.Dim(0))
		}
	}
	// Halo traffic flows during the windowed rollout too.
	if roll.HaloCommStats.MessagesSent == 0 {
		t.Fatal("no halo traffic in windowed rollout")
	}
}

func TestWindowedRolloutValidation(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	res, err := trainParallel(ds, 2, 1, windowCfg(3), CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	// Too few initial states.
	if _, err := rollout(e, 2, nil, ds.Snapshots[:2]...); err == nil {
		t.Fatal("short history accepted")
	}
	if _, err := predictOneStep(e, ds.Snapshots[:1]...); err == nil {
		t.Fatal("short history accepted by Predict")
	}
	// Plain Rollout requires window 1.
	if _, err := rollout(e, 2, nil, ds.Snapshots[0]); err == nil {
		t.Fatal("plain Rollout accepted for window-3 ensemble")
	}
}

func TestWindowedDatasetTooShort(t *testing.T) {
	ds := tinyDataset(t, 16, 3)
	if _, err := trainParallel(ds, 1, 1, windowCfg(3), CriticalPath); err == nil {
		t.Fatal("dataset shorter than window accepted")
	}
}
