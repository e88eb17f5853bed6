package model

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzManifest feeds arbitrary bytes through the artifact reader as a
// manifest.json sitting beside one real payload: ReadManifest →
// Validate → LoadArtifact must return an error or a manifest whose
// Ranks() equals its payload count (≥ 1) with that many checkpoints —
// never panic, and never size an allocation from a number the file
// merely declares.
func FuzzManifest(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "m")
	cks := testCheckpoints(f, 1, 1)
	man, err := NewManifest("m", "v1", cks)
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteArtifact(dir, man, cks); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// px·py wraps to 0 == len(payloads): the manifest that used to load
	// as zero checkpoints and panic core.OpenModel.
	f.Add([]byte(`{"format_version":1,"name":"m","px":4294967296,"py":4294967296,"nx":16,"ny":16,
		"config":{"Channels":[4,5,4],"Kernel":3,"LeakyEps":0.01},"payloads":[]}`))
	f.Add([]byte(`{"format_version":1,"name":"m","px":65536,"py":65536,"nx":1,"ny":1,"payloads":null}`))
	f.Add([]byte(`{"format_version":9}`))
	f.Add([]byte(`{"payloads":[{"rank":0,"file":"../rank0.gob"}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte("\x00\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		man, cks, err := LoadArtifact(dir)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(data)); grew > limit {
			t.Fatalf("LoadArtifact allocated %d bytes for a %d-byte manifest (limit %d)", grew, len(data), limit)
		}
		if err != nil {
			return
		}
		if man == nil || man.Ranks() < 1 || man.Ranks() != len(man.Payloads) || len(cks) != man.Ranks() {
			t.Fatalf("accepted manifest %+v with %d checkpoints", man, len(cks))
		}
	})
}
