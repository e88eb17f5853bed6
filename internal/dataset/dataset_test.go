package dataset

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/decomp"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/tensor"
)

func smallGen(t *testing.T, n, snaps int) *Dataset {
	t.Helper()
	d, err := Generate(GenConfig{Euler: euler.DefaultConfig(n), NumSnapshots: snaps})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateBasics(t *testing.T) {
	d := smallGen(t, 16, 5)
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i, s := range d.Snapshots {
		if s.Rank() != 3 || s.Dim(0) != grid.NumChannels || s.Dim(1) != 16 || s.Dim(2) != 16 {
			t.Fatalf("snapshot %d shape %v", i, s.Shape())
		}
		if s.HasNaN() {
			t.Fatalf("snapshot %d has NaN", i)
		}
	}
	if d.Dt <= 0 {
		t.Fatalf("Dt = %g", d.Dt)
	}
	// The state must actually evolve.
	if d.Snapshots[0].Sub(d.Snapshots[4]).AbsMax() == 0 {
		t.Fatalf("snapshots identical — solver not stepping")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Euler: euler.DefaultConfig(16), NumSnapshots: 1}); err == nil {
		t.Fatal("NumSnapshots=1 must fail")
	}
	bad := euler.DefaultConfig(16)
	bad.Gamma = 0.5
	if _, err := Generate(GenConfig{Euler: bad, NumSnapshots: 5}); err == nil {
		t.Fatal("invalid solver config must fail")
	}
}

func TestStepsPerSnapshot(t *testing.T) {
	d1, _ := Generate(GenConfig{Euler: euler.DefaultConfig(16), NumSnapshots: 3, StepsPerSnapshot: 1})
	d2, _ := Generate(GenConfig{Euler: euler.DefaultConfig(16), NumSnapshots: 2, StepsPerSnapshot: 2})
	// d2's second snapshot equals d1's third (2 solver steps).
	if !d2.Snapshots[1].AllClose(d1.Snapshots[2], 1e-12) {
		t.Fatalf("StepsPerSnapshot mismatch")
	}
	if math.Abs(d2.Dt-2*d1.Dt) > 1e-15 {
		t.Fatalf("Dt scaling wrong: %g vs %g", d2.Dt, d1.Dt)
	}
}

func TestPairsAlignment(t *testing.T) {
	d := smallGen(t, 16, 6)
	pairs := d.Pairs()
	if len(pairs) != 5 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for i, pr := range pairs {
		if !pr.Input.Equal(d.Snapshots[i]) || !pr.Target.Equal(d.Snapshots[i+1]) {
			t.Fatalf("pair %d misaligned", i)
		}
	}
}

func TestSplit(t *testing.T) {
	d := smallGen(t, 16, 10)
	train, val, err := d.Split(7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 7 || val.Len() != 3 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
	if !val.Snapshots[0].Equal(d.Snapshots[7]) {
		t.Fatalf("validation does not start at the split point")
	}
	if _, _, err := d.Split(1); err == nil {
		t.Fatal("split at 1 must fail")
	}
	if _, _, err := d.Split(11); err == nil {
		t.Fatal("split beyond length must fail")
	}
}

func TestSubdomainSamples(t *testing.T) {
	d := smallGen(t, 16, 4)
	p, _ := decomp.NewPartition(16, 16, 2, 2)
	for rank := 0; rank < 4; rank++ {
		samples := SubdomainSamples(d, p, rank, 2)
		if len(samples) != 3 {
			t.Fatalf("rank %d: %d samples", rank, len(samples))
		}
		for _, s := range samples {
			if s.Input.Dim(1) != 12 || s.Input.Dim(2) != 12 {
				t.Fatalf("input with halo shape %v, want 12x12", s.Input.Shape())
			}
			if s.Target.Dim(1) != 8 || s.Target.Dim(2) != 8 {
				t.Fatalf("target shape %v, want 8x8", s.Target.Shape())
			}
		}
	}
}

// Property: gathering all ranks' bare-block targets reassembles the
// full-domain snapshot.
func TestQuickSubdomainTargetsTile(t *testing.T) {
	d := smallGen(t, 12, 3)
	f := func(pxRaw, pyRaw uint8) bool {
		px := int(pxRaw%3) + 1
		py := int(pyRaw%3) + 1
		p, err := decomp.NewPartition(12, 12, px, py)
		if err != nil {
			return true
		}
		parts := make([]*tensor.Tensor, p.Ranks())
		for r := 0; r < p.Ranks(); r++ {
			parts[r] = SubdomainSamples(d, p, r, 0)[0].Target
		}
		return p.GatherCHW(parts).Equal(d.Snapshots[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchAndGather(t *testing.T) {
	d := smallGen(t, 16, 5)
	pairs := d.Pairs()
	in, tg := Batch(pairs)
	if in.Dim(0) != 4 || tg.Dim(0) != 4 {
		t.Fatalf("batch sizes %v %v", in.Shape(), tg.Shape())
	}
	in2, _ := Gather(pairs, []int{2, 0})
	if !tensor.Channel(in2, 0, 0).Equal(tensor.Channel(in, 2, 0)) {
		t.Fatalf("Gather misordered")
	}
}

func TestMiniBatches(t *testing.T) {
	bs := MiniBatches(10, 3, nil)
	if len(bs) != 4 || len(bs[0]) != 3 || len(bs[3]) != 1 {
		t.Fatalf("MiniBatches shape wrong: %v", bs)
	}
	// Without RNG, order is sequential.
	if bs[0][0] != 0 || bs[3][0] != 9 {
		t.Fatalf("MiniBatches order wrong: %v", bs)
	}
	// Shuffled batches cover every index exactly once.
	sh := MiniBatches(10, 3, tensor.NewRNG(1))
	seen := map[int]int{}
	for _, b := range sh {
		for _, i := range b {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("shuffled batches missing indices: %v", seen)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}
	// bs <= 0 means one batch.
	if got := MiniBatches(5, 0, nil); len(got) != 1 || len(got[0]) != 5 {
		t.Fatalf("bs=0 handling wrong")
	}
}

func TestFitMinMaxAndApply(t *testing.T) {
	d := smallGen(t, 16, 8)
	n, err := FitMinMax(d, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	nd := NormalizeDataset(d, n)
	for _, s := range nd.Snapshots {
		if s.Min() < 0.1-1e-12 || s.Max() > 0.9+1e-12 {
			t.Fatalf("normalized outside range: [%g,%g]", s.Min(), s.Max())
		}
	}
}

func TestNormalizerConstantChannel(t *testing.T) {
	// Density at t=0 is exactly zero everywhere; a one-snapshot fit
	// must not divide by zero.
	d := smallGen(t, 16, 2)
	single := &Dataset{Grid: d.Grid, Snapshots: d.Snapshots[:1], Dt: d.Dt}
	n, err := FitMinMax(single, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	out := n.Apply(single.Snapshots[0])
	if out.HasNaN() {
		t.Fatalf("constant channel produced NaN")
	}
	// Constant channel maps to the midpoint 0.5.
	if got := out.At(grid.ChanDensity, 8, 8); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("constant channel = %g, want 0.5", got)
	}
}

func TestNormalizerBatchTensor(t *testing.T) {
	d := smallGen(t, 16, 4)
	n, _ := FitMinMax(d, 0.1, 0.9)
	in, _ := Batch(d.Pairs())
	out := n.Apply(in)
	if !out.SameShape(in) {
		t.Fatalf("batch normalize changed shape")
	}
	// Per-sample result equals per-CHW result.
	one := n.Apply(d.Snapshots[0])
	first := tensor.FromSlice(out.Data()[:one.Size()], one.Shape()...)
	if !first.AllClose(one, 1e-12) {
		t.Fatalf("NCHW vs CHW normalization mismatch")
	}
}

func TestNormalizeValidation(t *testing.T) {
	d := smallGen(t, 16, 2)
	if _, err := FitMinMax(d, 0.9, 0.1); err == nil {
		t.Fatal("inverted range must fail")
	}
	empty := &Dataset{Grid: d.Grid}
	if _, err := FitMinMax(empty, 0, 1); err == nil {
		t.Fatal("empty dataset must fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := smallGen(t, 16, 4)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.Dt != d.Dt || got.Grid != d.Grid {
		t.Fatalf("metadata mismatch")
	}
	for i := range d.Snapshots {
		if !got.Snapshots[i].Equal(d.Snapshots[i]) {
			t.Fatalf("snapshot %d mismatch", i)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("loading missing file must fail")
	}
}
