package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/euler"
	"repro/internal/model"
)

// Uneven decompositions: grids that do not divide evenly across the
// process grid produce blocks of different sizes, so the halo strips
// exchanged between neighbours have different lengths per pair. The
// rollout must still agree exactly with direct slicing.

func unevenDataset(t *testing.T, n, snaps int) *dataset.Dataset {
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

func TestUnevenBlocksTrainAndRollout(t *testing.T) {
	// 17 points over 2 ranks → blocks of 8 and 9; over 3 ranks in y →
	// 5, 6, 6.
	ds := unevenDataset(t, 17, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 2, 3, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()

	direct, err := predictOneStep(e, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	roll, err := rollout(e, 2, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !roll.Steps[0].Equal(direct) {
		t.Fatalf("uneven blocks: rollout != direct (max diff %g)",
			roll.Steps[0].Sub(direct).AbsMax())
	}
	if roll.Steps[1].HasNaN() {
		t.Fatal("NaN in second step")
	}
	// Block sizes really are uneven.
	sizes := map[int]bool{}
	for r := 0; r < res.Partition.Ranks(); r++ {
		b := res.Partition.BlockOfRank(r)
		sizes[b.Width()*1000+b.Height()] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("expected uneven blocks, got uniform %v", sizes)
	}
}

func TestUnevenBlocksZeroPad(t *testing.T) {
	ds := unevenDataset(t, 13, 5)
	cfg := tinyCfg()
	cfg.Epochs = 1
	res, err := trainParallel(ds, 3, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	pred, err := predictOneStep(e, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !pred.SameShape(ds.Snapshots[0]) {
		t.Fatalf("prediction shape %v", pred.Shape())
	}
}
