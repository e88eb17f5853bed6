package core

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestDataParallelBasic(t *testing.T) {
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	cfg.Epochs = 4
	res, err := trainDataParallel(ds, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || res.Ranks != 4 {
		t.Fatalf("result malformed: %+v", res)
	}
	if len(res.History) != 4 {
		t.Fatalf("history length %d", len(res.History))
	}
	if math.IsNaN(res.FinalLoss()) {
		t.Fatal("NaN loss")
	}
	// The defining contrast with the paper's scheme: the baseline DOES
	// communicate during training (one allreduce per epoch).
	if res.CommStats.MessagesSent == 0 || res.CommStats.BytesSent == 0 {
		t.Fatalf("baseline communicated nothing: %+v", res.CommStats)
	}
	if res.WallSeconds <= 0 {
		t.Fatal("no wall time measured")
	}
}

func TestDataParallelCommVolumeScalesWithEpochs(t *testing.T) {
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	cfg.Epochs = 2
	a, err := trainDataParallel(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 4
	b, err := trainDataParallel(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.CommStats.BytesSent != 2*a.CommStats.BytesSent {
		t.Fatalf("comm volume not proportional to epochs: %d vs %d", a.CommStats.BytesSent, b.CommStats.BytesSent)
	}
}

func TestDataParallelReplicasConverge(t *testing.T) {
	// After the final averaging, all replicas hold identical weights;
	// rank 0's model must be deterministic across runs.
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	cfg.Epochs = 2
	a, err := trainDataParallel(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainDataParallel(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Model.Params(), b.Model.Params()
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value) {
			t.Fatalf("baseline not deterministic (param %d)", i)
		}
	}
}

func TestDataParallelValidation(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	if _, err := trainDataParallel(ds, 0, tinyCfg()); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := trainDataParallel(ds, 50, tinyCfg()); err == nil {
		t.Fatal("more ranks than samples accepted")
	}
	cfg := tinyCfg()
	cfg.Model.Strategy = model.NeighborPad
	if _, err := trainDataParallel(ds, 2, cfg); err == nil {
		t.Fatal("non-zero-pad strategy accepted")
	}
	cfg = tinyCfg()
	cfg.Epochs = 0
	if _, err := trainDataParallel(ds, 2, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}
