package model

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testCheckpoints builds px·py tiny per-rank checkpoints with
// consistent partition metadata.
func testCheckpoints(t testing.TB, px, py int) []*Checkpoint {
	t.Helper()
	cfg := Config{Channels: []int{4, 5, 4}, Kernel: 3, LeakyEps: 0.01, Strategy: ZeroPad, Seed: 1}
	cks := make([]*Checkpoint, px*py)
	for r := range cks {
		cfg.Seed = int64(r + 1)
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ck := Snapshot(cfg, m)
		ck.Rank = r
		ck.Px, ck.Py = px, py
		ck.Nx, ck.Ny = 16, 16
		ck.Window = 1
		cks[r] = ck
	}
	return cks
}

func writeTestArtifact(t *testing.T, dir string, px, py int) (*Manifest, []*Checkpoint) {
	t.Helper()
	cks := testCheckpoints(t, px, py)
	man, err := NewManifest("m", "v1", cks)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(dir, man, cks); err != nil {
		t.Fatal(err)
	}
	return man, cks
}

func TestArtifactRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	man, cks := writeTestArtifact(t, dir, 2, 2)
	if man.Payloads[0].SHA256 == "" || man.Payloads[0].Size == 0 {
		t.Fatal("WriteArtifact did not fill payload digests")
	}
	got, gotCks, err := LoadArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("manifest not returned for an artifact directory")
	}
	if got.Name != "m" || got.Version != "v1" || got.FormatVersion != ArtifactFormatVersion {
		t.Fatalf("manifest identity mangled: %+v", got)
	}
	if len(gotCks) != len(cks) {
		t.Fatalf("got %d checkpoints, want %d", len(gotCks), len(cks))
	}
	for r, ck := range gotCks {
		want := cks[r]
		if ck.Rank != r || ck.Px != want.Px || ck.Py != want.Py {
			t.Fatalf("rank %d metadata mangled: %+v", r, ck)
		}
		for name, tn := range want.State {
			gt, ok := ck.State[name]
			if !ok || !gt.Equal(tn) {
				t.Fatalf("rank %d weight %q did not round-trip bit-identically", r, name)
			}
		}
	}
}

func TestArtifactDigestMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	writeTestArtifact(t, dir, 2, 1)
	// Flip one byte without changing the size.
	path := filepath.Join(dir, "rank1.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadArtifact(dir)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("corrupted payload: got %v, want ErrDigestMismatch", err)
	}
	if !strings.Contains(err.Error(), "rank1.gob") {
		t.Fatalf("error does not name the corrupted file: %v", err)
	}
}

func TestArtifactTruncatedPayload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	writeTestArtifact(t, dir, 2, 1)
	path := filepath.Join(dir, "rank0.gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadArtifact(dir)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("truncated payload: got %v, want ErrDigestMismatch", err)
	}
	if !strings.Contains(err.Error(), "rank0.gob") {
		t.Fatalf("error does not name the truncated file: %v", err)
	}
}

func TestArtifactMissingPayload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	writeTestArtifact(t, dir, 2, 2)
	if err := os.Remove(filepath.Join(dir, "rank3.gob")); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadArtifact(dir)
	if err == nil {
		t.Fatal("missing payload accepted")
	}
	if !strings.Contains(err.Error(), "rank3.gob") || !strings.Contains(err.Error(), "2x2") {
		t.Fatalf("error lacks the missing file or declared grid: %v", err)
	}
}

func TestArtifactFutureFormatVersionRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	man, _ := writeTestArtifact(t, dir, 1, 1)
	man.FormatVersion = ArtifactFormatVersion + 7
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadArtifact(dir)
	if !errors.Is(err, ErrFutureFormat) {
		t.Fatalf("future format version: got %v, want ErrFutureFormat", err)
	}
}

// TestArtifactHostileGridRefused: a process grid whose product wraps
// (2³²·2³² = 0 = len(payloads)) or exceeds the rank ceiling is refused
// by name — in manifest.json and in a legacy rank0.gob alike — before
// anything is sized from it, never "loaded" as zero checkpoints.
func TestArtifactHostileGridRefused(t *testing.T) {
	for _, g := range []struct{ px, py int }{{1 << 32, 1 << 32}, {1 << 62, 4}, {maxRanks, 2}, {0, 0}} {
		dir := filepath.Join(t.TempDir(), "m")
		man, _ := writeTestArtifact(t, dir, 1, 1)
		man.Px, man.Py, man.Payloads = g.px, g.py, []Payload{}
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, cks, err := LoadArtifact(dir); err == nil || !strings.Contains(err.Error(), ManifestName) {
			t.Errorf("manifest %dx%d grid: got %d checkpoints, error %v; want one naming %s", g.px, g.py, len(cks), err, ManifestName)
		}

		legacy := t.TempDir()
		ck := testCheckpoints(t, 1, 1)[0]
		ck.Px, ck.Py = g.px, g.py
		if err := ck.Save(filepath.Join(legacy, rankFile(0))); err != nil {
			t.Fatal(err)
		}
		if _, cks, err := LoadArtifact(legacy); err == nil || !strings.Contains(err.Error(), "rank0.gob") {
			t.Errorf("legacy %dx%d grid: got %d checkpoints, error %v; want one naming rank0.gob", g.px, g.py, len(cks), err)
		}
	}
}

func TestArtifactLegacyFallback(t *testing.T) {
	// Bare rank<N>.gob files, no manifest: the compatibility reader
	// loads them and reports a nil manifest.
	dir := t.TempDir()
	cks := testCheckpoints(t, 2, 1)
	for r, ck := range cks {
		if err := ck.Save(filepath.Join(dir, rankFile(r))); err != nil {
			t.Fatal(err)
		}
	}
	man, got, err := LoadArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man != nil {
		t.Fatal("legacy directory returned a manifest")
	}
	if len(got) != 2 || got[1].Rank != 1 {
		t.Fatalf("legacy load mangled checkpoints: %d", len(got))
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("ReadManifest on a legacy dir: got %v, want ErrNoManifest", err)
	}
}

func TestArtifactLegacyErrorNamesActualFile(t *testing.T) {
	// The satellite fix: a bad rank2 file must be blamed on rank2.gob,
	// not on rank0.gob's declared grid alone.
	dir := t.TempDir()
	cks := testCheckpoints(t, 2, 2)
	for r, ck := range cks {
		if err := ck.Save(filepath.Join(dir, rankFile(r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "rank2.gob"), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadArtifact(dir)
	if err == nil {
		t.Fatal("corrupt rank2 accepted")
	}
	if !strings.Contains(err.Error(), "rank2.gob") {
		t.Fatalf("error does not name the actual corrupt file: %v", err)
	}
}

func TestMigrateLegacyDir(t *testing.T) {
	dir := t.TempDir()
	cks := testCheckpoints(t, 2, 1)
	for r, ck := range cks {
		if err := ck.Save(filepath.Join(dir, rankFile(r))); err != nil {
			t.Fatal(err)
		}
	}
	man, err := Migrate(dir, "prod", "v3")
	if err != nil {
		t.Fatal(err)
	}
	if man.Name != "prod" || man.Version != "v3" || len(man.Payloads) != 2 {
		t.Fatalf("migrated manifest wrong: %+v", man)
	}
	// The migrated directory now loads as a verified artifact.
	got, _, err := LoadArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Name != "prod" {
		t.Fatal("migrated directory did not load as an artifact")
	}
	// Migrating twice is refused.
	if _, err := Migrate(dir, "prod", "v4"); err == nil {
		t.Fatal("double migrate accepted")
	}
}

func TestWriteArtifactReplacesAtomically(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	writeTestArtifact(t, dir, 2, 2) // 4 payloads
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Replace with a smaller model: the directory must be swapped as a
	// unit — no stale rank2/rank3/stray files surviving.
	cks := testCheckpoints(t, 1, 1)
	man, err := NewManifest("m", "v2", cks)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(dir, man, cks); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("replaced artifact holds stale files: %v", names)
	}
	got, _, err := LoadArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != "v2" || got.Ranks() != 1 {
		t.Fatalf("replacement not visible: %+v", got)
	}
	if _, err := os.Stat(dir + ".old"); !os.IsNotExist(err) {
		t.Fatal("old-artifact staging directory left behind")
	}
}

func TestCheckpointSaveAtomicOverwrite(t *testing.T) {
	// Save onto an existing path must fully replace it (temp + rename),
	// so a reader can never observe a mix of old and new bytes.
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.gob")
	if err := os.WriteFile(path, []byte(strings.Repeat("garbage", 1000)), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoints(t, 1, 1)[0]
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("overwritten checkpoint does not load: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestCheckpointSaveIntoMissingDirFails(t *testing.T) {
	ck := testCheckpoints(t, 1, 1)[0]
	err := ck.Save(filepath.Join(t.TempDir(), "no-such-dir", "ck.gob"))
	if err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}
