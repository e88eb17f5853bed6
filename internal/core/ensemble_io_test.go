package core

import (
	"testing"

	"repro/internal/model"
)

func TestSaveLoadEnsembleRoundTrip(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEnsemble(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partition.Px != 2 || got.Partition.Py != 2 || got.Partition.Nx != 16 {
		t.Fatalf("partition metadata lost: %+v", got.Partition)
	}
	if got.ModelCfg.Strategy != model.NeighborPad {
		t.Fatalf("strategy lost")
	}
	// Predictions must be identical.
	a, err := predictOneStep(e, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := predictOneStep(got, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !a.AllClose(b, 1e-14) {
		t.Fatalf("restored ensemble predicts differently")
	}
}

func TestSaveLoadEnsembleWindowed(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	res, err := trainParallel(ds, 2, 1, windowCfg(3), CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	dir := t.TempDir()
	if err := SaveModel(e, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEnsemble(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != 3 {
		t.Fatalf("temporal window lost: %d", got.Window)
	}
	if _, err := predictOneStep(got, ds.Snapshots[:3]...); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEnsembleMissingDir(t *testing.T) {
	if _, err := LoadEnsemble(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}
