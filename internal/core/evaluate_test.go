package core

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/model"
)

func TestEvaluateOneStep(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	per, overall, err := EvaluateOneStep(e, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != grid.NumChannels {
		t.Fatalf("per-channel count %d", len(per))
	}
	if overall.MSE <= 0 {
		t.Fatalf("overall MSE %g (untrained-but-nonzero expected)", overall.MSE)
	}
	for c, m := range per {
		if m.MSE < 0 || m.MAPE < 0 {
			t.Fatalf("channel %d metrics invalid: %+v", c, m)
		}
	}
}

func TestEvaluateOneStepWindowed(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	res, err := trainParallel(ds, 2, 1, windowCfg(2), CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	per, _, err := EvaluateOneStep(res.Ensemble(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != grid.NumChannels {
		t.Fatalf("per-channel count %d", len(per))
	}
	// Too-short dataset is rejected.
	short := tinyDataset(t, 16, 2)
	if _, _, err := EvaluateOneStep(res.Ensemble(), short); err == nil {
		t.Fatal("short dataset accepted")
	}
}
