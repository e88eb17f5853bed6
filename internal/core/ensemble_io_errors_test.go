package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// Satellite coverage: every LoadEnsemble failure mode returns a
// wrapped, actionable error naming the problem — never a panic and
// never a silent partial ensemble.

func TestLoadEnsembleNonexistentDir(t *testing.T) {
	_, err := LoadEnsemble(filepath.Join(t.TempDir(), "no-such-dir"))
	if err == nil {
		t.Fatal("nonexistent directory accepted")
	}
	if !strings.Contains(err.Error(), "no-such-dir") {
		t.Fatalf("error does not name the directory: %v", err)
	}
}

func TestLoadEnsemblePathIsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnsemble(path); err == nil {
		t.Fatal("plain file accepted as checkpoint directory")
	}
}

func TestLoadEnsembleEmptyDirMentionsExpectedLayout(t *testing.T) {
	_, err := LoadEnsemble(t.TempDir())
	if err == nil {
		t.Fatal("empty directory accepted")
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Fatalf("error does not explain the expected rank<N>.gob layout: %v", err)
	}
}

func TestLoadEnsembleTruncatedRank0(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rank0.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadEnsemble(dir)
	if err == nil {
		t.Fatal("truncated rank0 accepted")
	}
	if !strings.Contains(err.Error(), "rank0.gob") {
		t.Fatalf("error does not name the truncated file: %v", err)
	}
}

func TestLoadEnsembleMissingRankFile(t *testing.T) {
	// rank0 declares a 2x2 grid but one of the four files is gone: the
	// rank-count mismatch must name both the declared grid and the
	// missing file.
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "rank3.gob")); err != nil {
		t.Fatal(err)
	}
	_, err := LoadEnsemble(dir)
	if err == nil {
		t.Fatal("missing rank file accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank3.gob") || !strings.Contains(msg, "2x2") {
		t.Fatalf("error lacks the declared grid or missing file: %v", err)
	}
}

func TestLoadEnsemblePartitionMismatch(t *testing.T) {
	// A rank file from a different partition must be rejected with
	// both partitions named.
	_, e21 := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	_, e12 := trainTinyEnsemble(t, model.ZeroPad, 1, 2)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := SaveModel(e21, dirA, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(e12, dirB, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dirB, "rank1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirA, "rank1.gob"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadEnsemble(dirA)
	if err == nil {
		t.Fatal("mixed-partition checkpoints accepted")
	}
	if !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("error does not explain the inconsistency: %v", err)
	}
}

// TestLoadEnsembleOverflowingGridIsRefused: a manifest (or a legacy
// rank0.gob) declaring a 2³²×2³² grid — whose rank count wraps to the
// zero payloads it lists — is an error naming the file, not an index
// out of range on the first checkpoint.
func TestLoadEnsembleOverflowingGridIsRefused(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 1, 1)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "m", "v1"); err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	data, err := os.ReadFile(filepath.Join(dir, model.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["px"], man["py"], man["payloads"] = 1<<32, 1<<32, []any{}
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, model.ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenModel(dir); err == nil || !strings.Contains(err.Error(), model.ManifestName) {
		t.Fatalf("overflowing manifest grid: got %v, want an error naming %s", err, model.ManifestName)
	}

	legacy := t.TempDir()
	ck := snapshotEnsemble(e)[0]
	ck.Px, ck.Py = 1<<32, 1<<32
	if err := ck.Save(filepath.Join(legacy, "rank0.gob")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenModel(legacy); err == nil || !strings.Contains(err.Error(), "rank0.gob") {
		t.Fatalf("overflowing legacy grid: got %v, want an error naming rank0.gob", err)
	}
}

func TestLoadEnsembleDigestMismatchIsNamed(t *testing.T) {
	// SaveModel writes digest-bearing manifests: a same-size bit flip
	// in one payload must surface as ErrDigestMismatch naming the file.
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "m", "v1"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rank1.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadEnsemble(dir)
	if !errors.Is(err, model.ErrDigestMismatch) {
		t.Fatalf("corrupted payload: got %v, want model.ErrDigestMismatch", err)
	}
	if !strings.Contains(err.Error(), "rank1.gob") {
		t.Fatalf("error does not name the corrupted file: %v", err)
	}
}

func TestLoadEnsembleFutureFormatRefused(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "m", "v1"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, model.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(string(data),
		fmt.Sprintf("\"format_version\": %d", model.ArtifactFormatVersion),
		"\"format_version\": 999", 1)
	if bumped == string(data) {
		t.Fatal("manifest format_version field not found to bump")
	}
	if err := os.WriteFile(path, []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnsemble(dir); !errors.Is(err, model.ErrFutureFormat) {
		t.Fatalf("future format: got %v, want model.ErrFutureFormat", err)
	}
}

func TestLoadEnsembleLegacyDirAndMigrate(t *testing.T) {
	// A pre-manifest directory (what older cmd/train wrote, and what
	// each process of a TCP training job still writes) loads through
	// the compatibility reader; Migrate upgrades it in place.
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	dir := t.TempDir()
	if err := SaveModel(e, dir, "m", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, model.ManifestName)); err != nil {
		t.Fatal(err)
	}
	got, man, err := OpenModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man != nil {
		t.Fatal("legacy dir returned a manifest")
	}
	if len(got.Models) != 4 {
		t.Fatalf("legacy load produced %d models", len(got.Models))
	}
	if _, err := model.Migrate(dir, "m", "v2"); err != nil {
		t.Fatal(err)
	}
	_, man, err = OpenModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Version != "v2" {
		t.Fatalf("migrated dir manifest: %+v", man)
	}
}
