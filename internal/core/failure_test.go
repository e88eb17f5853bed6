package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
)

// Failure-injection tests: the trainer and IO paths must fail loudly
// and informatively, never silently produce garbage.

func TestTrainingDivergenceDetected(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Optimizer = "sgd"
	cfg.LR = 1e9 // guaranteed blow-up
	cfg.Loss = "mse"
	cfg.Epochs = 20
	_, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
	if err == nil {
		t.Fatal("divergence not detected")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unhelpful divergence error: %v", err)
	}
}

func TestCorruptedCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "rank0.gob"), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnsemble(dir); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

func TestTruncatedCheckpointRejected(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	// Truncate rank1's file.
	path := filepath.Join(dir, "rank1.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnsemble(dir); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestInconsistentCheckpointMetadataRejected(t *testing.T) {
	// Save two ensembles with different partitions, then mix their
	// files: LoadEnsemble must notice.
	_, e21 := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	_, e12 := trainTinyEnsemble(t, model.ZeroPad, 1, 2)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := SaveModel(e21, dirA, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(e12, dirB, "", ""); err != nil {
		t.Fatal(err)
	}
	// Overwrite A's rank1 with B's rank1 (different process grid).
	data, err := os.ReadFile(filepath.Join(dirB, "rank1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirA, "rank1.gob"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnsemble(dirA); err == nil {
		t.Fatal("mixed-partition checkpoints accepted")
	}
}

func TestCorruptedDatasetRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := os.WriteFile(path, []byte{0x00, 0x01, 0x02}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Load(path); err == nil {
		t.Fatal("corrupted dataset accepted")
	}
}
