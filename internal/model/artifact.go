package model

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// A model artifact is one directory per trained model version:
//
//	<dir>/
//	  manifest.json   format version, model name/version, partition +
//	                  window + architecture metadata, per-rank payload
//	                  list with SHA-256 digests
//	  rank0.gob       per-rank weight payloads (gob Checkpoints)
//	  rank1.gob …
//
// Artifacts are written atomically (everything lands in a temp
// directory that is renamed into place), so a reader never observes a
// half-written model, and every payload is digest-checked on open, so
// a truncated or bit-rotted file fails loudly naming the file.
// Directories of bare rank<N>.gob files (the pre-manifest layout)
// still load through the legacy fallback in LoadArtifact, and Migrate
// upgrades them in place.

// ArtifactFormatVersion is the manifest format this binary writes.
// Readers accept any version ≤ this and refuse newer ones with
// ErrFutureFormat rather than misinterpreting fields.
const ArtifactFormatVersion = 1

// ManifestName is the manifest file inside an artifact directory.
const ManifestName = "manifest.json"

// Named artifact errors; every failure path wraps one of these with
// the offending path so callers can branch with errors.Is.
var (
	// ErrNoManifest reports a checkpoint directory without
	// manifest.json — a legacy bare rank<N>.gob layout (or not a model
	// directory at all).
	ErrNoManifest = errors.New("no manifest.json (legacy checkpoint layout)")

	// ErrFutureFormat reports a manifest whose format version is newer
	// than this binary understands.
	ErrFutureFormat = errors.New("artifact format version is newer than this binary supports")

	// ErrDigestMismatch reports a payload file whose size or SHA-256
	// digest is inconsistent with its manifest entry (truncation,
	// corruption, or a file swapped in from another model).
	ErrDigestMismatch = errors.New("payload inconsistent with manifest digest")
)

// Payload is one per-rank weight file within an artifact.
type Payload struct {
	Rank   int    `json:"rank"`
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Manifest is the artifact metadata written as manifest.json.
type Manifest struct {
	FormatVersion int       `json:"format_version"`
	Name          string    `json:"name"`
	Version       string    `json:"version"`
	CreatedAt     time.Time `json:"created_at"`
	// Partition metadata: Px×Py process grid over the Nx×Ny domain.
	Px int `json:"px"`
	Py int `json:"py"`
	Nx int `json:"nx"`
	Ny int `json:"ny"`
	// Window is the temporal window the networks consume (0/1 = single
	// frame).
	Window int `json:"window"`
	// Config is the per-subdomain network architecture.
	Config Config `json:"config"`
	// Payloads lists the per-rank weight files, in rank order.
	Payloads []Payload `json:"payloads"`
}

// Ranks returns the number of per-rank payloads the manifest declares.
func (m *Manifest) Ranks() int { return m.Px * m.Py }

// maxRanks bounds the process grid a manifest.json or a legacy
// rank0.gob may declare — both are outside input — far above any
// machine this runs on and far below where px·py could wrap.
const maxRanks = 1 << 16

// gridRanks returns px·py for a well-formed process grid: both edges
// ≥ 1 and a product of at most maxRanks (so it cannot have overflowed).
func gridRanks(px, py int) (int, error) {
	if px < 1 || py < 1 || px > maxRanks/py {
		return 0, fmt.Errorf("bad %dx%d process grid (want 1 ≤ px·py ≤ %d)", px, py, maxRanks)
	}
	return px * py, nil
}

// Validate reports structural problems with the manifest itself
// (payload digests are checked separately by Verify).
func (m *Manifest) Validate() error {
	if m.FormatVersion > ArtifactFormatVersion {
		return fmt.Errorf("model: manifest format version %d (this binary supports ≤ %d): %w",
			m.FormatVersion, ArtifactFormatVersion, ErrFutureFormat)
	}
	if m.FormatVersion < 1 {
		return fmt.Errorf("model: bad manifest format version %d", m.FormatVersion)
	}
	if m.Name == "" {
		return fmt.Errorf("model: manifest without a model name")
	}
	ranks, err := gridRanks(m.Px, m.Py)
	if err != nil || m.Nx < 1 || m.Ny < 1 {
		return fmt.Errorf("model: manifest %q declares bad partition %dx%d over %dx%d (at most %d ranks)",
			m.Name, m.Px, m.Py, m.Nx, m.Ny, maxRanks)
	}
	if err := m.Config.Validate(); err != nil {
		return fmt.Errorf("model: manifest %q: %w", m.Name, err)
	}
	if len(m.Payloads) != ranks {
		return fmt.Errorf("model: manifest %q declares a %dx%d grid (%d ranks) but lists %d payloads",
			m.Name, m.Px, m.Py, ranks, len(m.Payloads))
	}
	for r, p := range m.Payloads {
		if p.Rank != r {
			return fmt.Errorf("model: manifest %q payload %d is for rank %d (payloads must be in rank order)",
				m.Name, r, p.Rank)
		}
		if p.File == "" || p.File != filepath.Base(p.File) {
			return fmt.Errorf("model: manifest %q rank %d payload has bad file name %q", m.Name, r, p.File)
		}
		// Digests are empty only transiently (NewManifest output before
		// WriteArtifact fills them); a manifest read back from disk must
		// carry well-formed ones or Verify's comparison is meaningless.
		if p.SHA256 != "" && len(p.SHA256) != sha256.Size*2 {
			return fmt.Errorf("model: manifest %q payload %s has malformed sha256 %q", m.Name, p.File, p.SHA256)
		}
	}
	return nil
}

// shortDigest safely truncates a digest for error messages.
func shortDigest(s string) string {
	if len(s) > 12 {
		return s[:12] + "…"
	}
	return s
}

// NewManifest derives an artifact manifest from per-rank checkpoints
// (indexed by rank, all carrying consistent partition metadata).
// Payload digests are filled in by WriteArtifact.
func NewManifest(name, version string, cks []*Checkpoint) (*Manifest, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("model: manifest of zero checkpoints")
	}
	ck0 := cks[0]
	m := &Manifest{
		FormatVersion: ArtifactFormatVersion,
		Name:          name,
		Version:       version,
		CreatedAt:     time.Now().UTC(),
		Px:            ck0.Px, Py: ck0.Py,
		Nx: ck0.Nx, Ny: ck0.Ny,
		Window: ck0.Window,
		Config: ck0.Config,
	}
	if m.Name == "" {
		m.Name = "model"
	}
	if m.Version == "" {
		m.Version = "v1"
	}
	if len(cks) != m.Ranks() {
		return nil, fmt.Errorf("model: %d checkpoints for a %dx%d grid (%d ranks)",
			len(cks), m.Px, m.Py, m.Ranks())
	}
	for r, ck := range cks {
		if ck.Rank != r || ck.Px != m.Px || ck.Py != m.Py || ck.Nx != m.Nx || ck.Ny != m.Ny || ck.Window != m.Window {
			return nil, fmt.Errorf("model: checkpoint %d (rank %d, %dx%d grid, %dx%d domain, window %d) inconsistent with checkpoint 0",
				r, ck.Rank, ck.Px, ck.Py, ck.Nx, ck.Ny, ck.Window)
		}
		m.Payloads = append(m.Payloads, Payload{Rank: r, File: rankFile(r)})
	}
	return m, m.Validate()
}

// rankFile is the conventional payload name for a rank.
func rankFile(r int) string { return fmt.Sprintf("rank%d.gob", r) }

// fileSHA256 returns the hex digest and size of a file.
func fileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// syncDir best-effort fsyncs a directory so renames inside it are
// durable (ignored on filesystems that refuse directory syncs).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// WriteArtifact writes a complete model artifact to dir atomically:
// every payload plus the manifest land in a temp directory next to dir
// which is then renamed into place, so a crash mid-write never leaves
// a half-written model where a reader (or a serving registry's admin
// load) would find it. An existing dir is replaced as one unit — the
// on-disk analogue of the registry's hot swap. The manifest's payload
// digests are computed here from the bytes actually written.
func WriteArtifact(dir string, man *Manifest, cks []*Checkpoint) (err error) {
	if man == nil {
		return fmt.Errorf("model: write artifact %s: nil manifest", dir)
	}
	if len(cks) != len(man.Payloads) {
		return fmt.Errorf("model: write artifact %s: %d checkpoints for %d manifest payloads",
			dir, len(cks), len(man.Payloads))
	}
	if err := man.Validate(); err != nil {
		return err
	}
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("model: write artifact %s: %w", dir, err)
	}
	tmp, err := os.MkdirTemp(parent, ".artifact-*")
	if err != nil {
		return fmt.Errorf("model: write artifact %s: %w", dir, err)
	}
	defer os.RemoveAll(tmp) // no-op after the successful rename

	m := *man // digests are filled on a copy; the caller's manifest stays untouched until success
	m.Payloads = append([]Payload(nil), man.Payloads...)
	for r, ck := range cks {
		path := filepath.Join(tmp, m.Payloads[r].File)
		if err := ck.Save(path); err != nil {
			return err
		}
		sum, size, err := fileSHA256(path)
		if err != nil {
			return fmt.Errorf("model: write artifact %s: digest %s: %w", dir, m.Payloads[r].File, err)
		}
		m.Payloads[r].SHA256, m.Payloads[r].Size = sum, size
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("model: write artifact %s: encode manifest: %w", dir, err)
	}
	if err := writeFileSync(filepath.Join(tmp, ManifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("model: write artifact %s: %w", dir, err)
	}
	syncDir(tmp)

	// Swap the finished artifact into place. If dir already holds a
	// model, move it aside first so the rename cannot collide, then
	// remove it — readers that already opened the old files keep valid
	// handles (POSIX semantics), which is what lets a serving process
	// keep draining the old version.
	old := dir + ".old"
	_ = os.RemoveAll(old)
	replaced := false
	if _, statErr := os.Stat(dir); statErr == nil {
		if err := os.Rename(dir, old); err != nil {
			return fmt.Errorf("model: write artifact %s: move old artifact aside: %w", dir, err)
		}
		replaced = true
	}
	if err := os.Rename(tmp, dir); err != nil {
		if replaced {
			_ = os.Rename(old, dir) // restore the previous version
		}
		return fmt.Errorf("model: write artifact %s: %w", dir, err)
	}
	_ = os.RemoveAll(old)
	syncDir(parent)
	*man = m
	return nil
}

// writeFileSync writes data to path and fsyncs before close, checking
// the close error — a full disk cannot yield a silently truncated file.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		//repolint:allow closecheck -- error path: the write error is already being returned
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		//repolint:allow closecheck -- error path: the sync error is already being returned
		f.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// ReadManifest reads and validates dir's manifest.json. A directory
// without one fails with ErrNoManifest (wrapped) — the caller decides
// whether to fall back to the legacy layout.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("model: artifact %s: %w", dir, ErrNoManifest)
		}
		return nil, fmt.Errorf("model: artifact %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("model: artifact %s: parse %s: %w", dir, ManifestName, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("artifact %s: %s: %w", dir, ManifestName, err)
	}
	return &m, nil
}

// Verify recomputes every payload's size and SHA-256 digest against
// the manifest, naming the first inconsistent file. It reads every
// payload fully, so a truncated or corrupted rank file is caught
// before any weights are deserialized.
func (m *Manifest) Verify(dir string) error {
	for _, p := range m.Payloads {
		path := filepath.Join(dir, p.File)
		sum, size, err := fileSHA256(path)
		if err != nil {
			return fmt.Errorf("model: artifact %s (model %q %s, %dx%d grid): payload %s: %w",
				dir, m.Name, m.Version, m.Px, m.Py, p.File, err)
		}
		if size != p.Size {
			return fmt.Errorf("model: artifact %s: payload %s is %d bytes, inconsistent with the manifest's %d (truncated or overwritten): %w",
				dir, p.File, size, p.Size, ErrDigestMismatch)
		}
		if sum != p.SHA256 {
			return fmt.Errorf("model: artifact %s: payload %s content inconsistent with manifest digest %s: %w",
				dir, p.File, shortDigest(p.SHA256), ErrDigestMismatch)
		}
	}
	return nil
}

// LoadArtifact opens a model directory and returns its manifest plus
// the per-rank checkpoints in rank order. Directories with a manifest
// are digest-verified first; legacy bare rank<N>.gob directories load
// through a compatibility path and return a nil manifest (Migrate
// upgrades them in place). Every failure names the offending file.
func LoadArtifact(dir string) (*Manifest, []*Checkpoint, error) {
	man, err := ReadManifest(dir)
	switch {
	case err == nil:
		if err := man.Verify(dir); err != nil {
			return nil, nil, err
		}
		cks := make([]*Checkpoint, man.Ranks())
		for r := range cks {
			ck, err := LoadCheckpoint(filepath.Join(dir, man.Payloads[r].File))
			if err != nil {
				return nil, nil, fmt.Errorf("model: artifact %s: payload %s: %w", dir, man.Payloads[r].File, err)
			}
			if ck.Rank != r || ck.Px != man.Px || ck.Py != man.Py || ck.Nx != man.Nx || ck.Ny != man.Ny {
				return nil, nil, fmt.Errorf("model: artifact %s: payload %s (rank %d, %dx%d grid, %dx%d domain) inconsistent with manifest (%dx%d grid, %dx%d domain)",
					dir, man.Payloads[r].File, ck.Rank, ck.Px, ck.Py, ck.Nx, ck.Ny, man.Px, man.Py, man.Nx, man.Ny)
			}
			cks[r] = ck
		}
		return man, cks, nil
	case errors.Is(err, ErrNoManifest):
		cks, err := loadLegacy(dir)
		return nil, cks, err
	default:
		return nil, nil, err
	}
}

// loadLegacy reads a pre-manifest directory of bare rank<N>.gob files:
// rank0's metadata declares the grid, and every failure names the
// actual offending file (not rank0).
func loadLegacy(dir string) ([]*Checkpoint, error) {
	ck0, err := LoadCheckpoint(filepath.Join(dir, rankFile(0)))
	if err != nil {
		return nil, fmt.Errorf("model: artifact %s: %w (expected %s or rank<N>.gob files from cmd/train or core.SaveModel)", dir, err, ManifestName)
	}
	ranks, err := gridRanks(ck0.Px, ck0.Py)
	if err != nil {
		return nil, fmt.Errorf("model: artifact %s: rank0.gob: %w", dir, err)
	}
	cks := make([]*Checkpoint, ranks)
	cks[0] = ck0
	for r := 1; r < ranks; r++ {
		ck, err := LoadCheckpoint(filepath.Join(dir, rankFile(r)))
		if err != nil {
			return nil, fmt.Errorf("model: artifact %s: payload %s (rank0.gob declares a %dx%d grid, %d ranks): %w",
				dir, rankFile(r), ck0.Px, ck0.Py, ranks, err)
		}
		if ck.Rank != r || ck.Px != ck0.Px || ck.Py != ck0.Py || ck.Nx != ck0.Nx || ck.Ny != ck0.Ny {
			return nil, fmt.Errorf("model: artifact %s: %s (rank %d, %dx%d process grid, %dx%d domain) inconsistent with rank0.gob (%dx%d grid, %dx%d domain)",
				dir, rankFile(r), ck.Rank, ck.Px, ck.Py, ck.Nx, ck.Ny, ck0.Px, ck0.Py, ck0.Nx, ck0.Ny)
		}
		cks[r] = ck
	}
	return cks, nil
}

// Migrate upgrades a legacy bare rank<N>.gob directory to the
// versioned artifact format in place: it loads and consistency-checks
// the existing payloads, then writes manifest.json (atomically, via a
// temp file) with their digests. The payload files themselves are not
// rewritten. name/version default like NewManifest's. Migrating a
// directory that already has a manifest is an error.
func Migrate(dir, name, version string) (*Manifest, error) {
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("model: migrate %s: already has %s", dir, ManifestName)
	}
	cks, err := loadLegacy(dir)
	if err != nil {
		return nil, err
	}
	man, err := NewManifest(name, version, cks)
	if err != nil {
		return nil, err
	}
	for r := range man.Payloads {
		sum, size, err := fileSHA256(filepath.Join(dir, man.Payloads[r].File))
		if err != nil {
			return nil, fmt.Errorf("model: migrate %s: digest %s: %w", dir, man.Payloads[r].File, err)
		}
		man.Payloads[r].SHA256, man.Payloads[r].Size = sum, size
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("model: migrate %s: encode manifest: %w", dir, err)
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := writeFileSync(tmp, append(data, '\n')); err != nil {
		return nil, fmt.Errorf("model: migrate %s: %w", dir, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("model: migrate %s: %w", dir, err)
	}
	syncDir(dir)
	return man, nil
}
