package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/nn"
)

// snapshotEnsemble captures every rank model into checkpoints carrying
// the partition metadata inference needs, indexed by rank.
func snapshotEnsemble(e *Ensemble) []*model.Checkpoint {
	cks := make([]*model.Checkpoint, len(e.Models))
	for r, m := range e.Models {
		ck := model.Snapshot(e.ModelCfg, m)
		ck.Rank = r
		ck.Px, ck.Py = e.Partition.Px, e.Partition.Py
		ck.Nx, ck.Ny = e.Partition.Nx, e.Partition.Ny
		ck.Window = e.window()
		cks[r] = ck
	}
	return cks
}

// SaveModel writes the ensemble as a versioned model artifact: one
// directory holding manifest.json (format version, name/version,
// partition + window + architecture metadata, per-rank SHA-256
// digests) plus the per-rank weight payloads, written atomically
// (temp dir + rename) so a crash never leaves a half-written model.
// An empty name defaults to the directory's base name, an empty
// version to "v1".
func SaveModel(e *Ensemble, dir, name, version string) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if name == "" {
		name = filepath.Base(filepath.Clean(dir))
	}
	cks := snapshotEnsemble(e)
	man, err := model.NewManifest(name, version, cks)
	if err != nil {
		return err
	}
	return model.WriteArtifact(dir, man, cks)
}

// OpenModel reads a model directory — a versioned artifact (digest-
// verified manifest.json + payloads) or a legacy directory of bare
// rank<N>.gob files — and reassembles the inference ensemble. The
// returned manifest is nil for legacy directories. Every failure mode
// (missing directory, missing/truncated/corrupt rank files, digest
// mismatches, a future format version, inconsistent partition
// metadata) returns a wrapped error naming the offending file, never
// a panic.
func OpenModel(dir string) (*Ensemble, *model.Manifest, error) {
	if st, err := os.Stat(dir); err != nil {
		return nil, nil, fmt.Errorf("core: load ensemble: checkpoint directory %s: %w", dir, err)
	} else if !st.IsDir() {
		return nil, nil, fmt.Errorf("core: load ensemble: %s is not a directory", dir)
	}
	man, cks, err := model.LoadArtifact(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load ensemble: %w", err)
	}
	ck0 := cks[0]
	p, err := decomp.NewPartition(ck0.Nx, ck0.Ny, ck0.Px, ck0.Py)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load ensemble from %s: partition metadata: %w", dir, err)
	}
	e := &Ensemble{Partition: p, ModelCfg: ck0.Config, Window: ck0.Window, Models: make([]*nn.Sequential, p.Ranks())}
	for r, ck := range cks {
		m, err := ck.Restore()
		if err != nil {
			return nil, nil, fmt.Errorf("core: load ensemble from %s: rank%d.gob: %w", dir, r, err)
		}
		e.Models[r] = m
	}
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	return e, man, nil
}

// LoadEnsemble reads the checkpoints written by SaveModel
// (or cmd/train) from dir and reassembles the inference ensemble —
// OpenModel without the manifest.
func LoadEnsemble(dir string) (*Ensemble, error) {
	e, _, err := OpenModel(dir)
	return e, err
}
