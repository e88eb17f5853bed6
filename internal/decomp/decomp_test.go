package decomp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestNewPartitionValidation(t *testing.T) {
	cases := []struct {
		nx, ny, px, py int
		ok             bool
	}{
		{64, 64, 2, 2, true},
		{10, 10, 10, 10, true},
		{0, 10, 1, 1, false},
		{10, 10, 0, 1, false},
		{10, 10, 11, 1, false},
		{10, 10, 1, 11, false},
		{100, 7, 8, 7, true},
	}
	for _, c := range cases {
		_, err := NewPartition(c.nx, c.ny, c.px, c.py)
		if (err == nil) != c.ok {
			t.Errorf("NewPartition(%d,%d,%d,%d): err = %v, want ok=%v", c.nx, c.ny, c.px, c.py, err, c.ok)
		}
	}
}

func TestBlockBalanced(t *testing.T) {
	p, _ := NewPartition(10, 10, 3, 3)
	// 10 points into 3 blocks: 3,3,4 or 3,4,3 — balanced split gives
	// sizes differing by at most one.
	total := 0
	for cy := 0; cy < 3; cy++ {
		for cx := 0; cx < 3; cx++ {
			b := p.Block(cx, cy)
			if b.Width() < 3 || b.Width() > 4 || b.Height() < 3 || b.Height() > 4 {
				t.Errorf("unbalanced block %v", b)
			}
			total += b.Width() * b.Height()
		}
	}
	if total != 100 {
		t.Fatalf("blocks cover %d points, want 100", total)
	}
}

// TestPartitionCoversDomain is the Fig. 2 structural check: blocks
// tile the domain exactly — every point owned once, no overlaps, no
// gaps — for arbitrary grid and process-grid sizes.
func TestPartitionCoversDomain(t *testing.T) {
	f := func(nxRaw, nyRaw, pxRaw, pyRaw uint8) bool {
		nx := int(nxRaw%40) + 4
		ny := int(nyRaw%40) + 4
		px := int(pxRaw%4) + 1
		py := int(pyRaw%4) + 1
		p, err := NewPartition(nx, ny, px, py)
		if err != nil {
			return true // skip invalid combos
		}
		owned := make([]int, nx*ny)
		for r := 0; r < p.Ranks(); r++ {
			b := p.BlockOfRank(r)
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					owned[j*nx+i]++
				}
			}
		}
		for _, c := range owned {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	p, _ := NewPartition(16, 16, 4, 2)
	for r := 0; r < p.Ranks(); r++ {
		cx, cy := p.CoordsOfRank(r)
		if got := cy*p.Px + cx; got != r || cx >= p.Px || cy >= p.Py {
			t.Fatalf("rank %d: coords (%d,%d) are row-major rank %d", r, cx, cy, got)
		}
	}
}

func TestHaloBlockClamping(t *testing.T) {
	p, _ := NewPartition(16, 16, 2, 2)
	// Corner block (0,0): halo cut at west and south.
	hb, miss := p.HaloBlock(0, 0, 2)
	if miss != [4]int{2, 0, 2, 0} {
		t.Fatalf("corner missing = %v", miss)
	}
	if hb.I0 != 0 || hb.I1 != 10 || hb.J0 != 0 || hb.J1 != 10 {
		t.Fatalf("corner halo block = %v", hb)
	}
	// Interior-facing sides extend into the neighbour.
	hb, miss = p.HaloBlock(1, 1, 2)
	if miss != [4]int{0, 2, 0, 2} {
		t.Fatalf("far corner missing = %v", miss)
	}
	if hb.I0 != 6 || hb.J0 != 6 {
		t.Fatalf("far corner halo block = %v", hb)
	}
}

func TestSplitGatherRoundTrip(t *testing.T) {
	p, _ := NewPartition(12, 10, 3, 2)
	g := tensor.NewRNG(5)
	full := tensor.Normal(g, 0, 1, 4, 10, 12) // CHW: [4, Ny, Nx]
	parts := p.SplitCHW(full, 0)
	if len(parts) != 6 {
		t.Fatalf("got %d parts", len(parts))
	}
	back := p.GatherCHW(parts)
	if !back.Equal(full) {
		t.Fatalf("gather(split(x)) != x")
	}
}

// Property: split/gather is the identity for random shapes and
// process grids.
func TestQuickSplitGatherIdentity(t *testing.T) {
	f := func(seed int64, nxRaw, pxRaw, pyRaw uint8) bool {
		nx := int(nxRaw%20) + 6
		px := int(pxRaw%3) + 1
		py := int(pyRaw%3) + 1
		p, err := NewPartition(nx, nx, px, py)
		if err != nil {
			return true
		}
		g := tensor.NewRNG(seed)
		full := tensor.Normal(g, 0, 1, 2, nx, nx)
		return p.GatherCHW(p.SplitCHW(full, 0)).Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitWithHaloContents(t *testing.T) {
	// 1 channel 8x8 grid, values = j*8+i, split 2x2 with halo 2.
	p, _ := NewPartition(8, 8, 2, 2)
	full := tensor.New(1, 8, 8)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			full.Set(float64(j*8+i), 0, j, i)
		}
	}
	parts := p.SplitCHW(full, 2)
	// Rank 0 = block [0:4)x[0:4), extended frame 8x8 with west/south
	// halo zero (physical boundary) and east/north halo from
	// neighbours.
	p0 := parts[0]
	if p0.Dim(1) != 8 || p0.Dim(2) != 8 {
		t.Fatalf("halo piece shape %v", p0.Shape())
	}
	// Zero at the physical boundary padding.
	if p0.At(0, 0, 0) != 0 || p0.At(0, 7, 0) != 0 && p0.At(0, 0, 7) != 0 {
		t.Fatalf("physical boundary padding not zero")
	}
	// Local (2,2) = global (0,0) = 0; local (2,3) = global (0,1).
	if p0.At(0, 2, 2) != 0 || p0.At(0, 2, 3) != 1 {
		t.Fatalf("interior misplaced: %g %g", p0.At(0, 2, 2), p0.At(0, 2, 3))
	}
	// East halo: local (2,6) = global (0,4) = 4 (from the neighbour).
	if p0.At(0, 2, 6) != 4 {
		t.Fatalf("east halo = %g, want 4", p0.At(0, 2, 6))
	}
	// North halo: local (6,2) = global (4,0) = 32.
	if p0.At(0, 6, 2) != 32 {
		t.Fatalf("north halo = %g, want 32", p0.At(0, 6, 2))
	}
	// Corner halo: local (6,6) = global (4,4) = 36.
	if p0.At(0, 6, 6) != 36 {
		t.Fatalf("corner halo = %g, want 36", p0.At(0, 6, 6))
	}
}

// StripInterior removes a halo of the given width from a CHW tensor,
// the inverse of the extension SplitCHW applies and the oracle of the
// property below.
func StripInterior(t *tensor.Tensor, halo int) *tensor.Tensor {
	if halo == 0 {
		return t.Clone()
	}
	c, h, w := t.Dim(0), t.Dim(1), t.Dim(2)
	cropped := tensor.Crop2D(t.Reshape(1, c, h, w), halo)
	return cropped.Reshape(c, h-2*halo, w-2*halo)
}

// Property: for interior data, cropping the halo back out recovers
// the bare block split.
func TestQuickHaloStripInverse(t *testing.T) {
	f := func(seed int64, haloRaw uint8) bool {
		halo := int(haloRaw % 3)
		p, err := NewPartition(12, 12, 2, 2)
		if err != nil {
			return true
		}
		g := tensor.NewRNG(seed)
		full := tensor.Normal(g, 0, 1, 3, 12, 12)
		bare := p.SplitCHW(full, 0)
		haloed := p.SplitCHW(full, halo)
		for r := range bare {
			if !StripInterior(haloed[r], halo).Equal(bare[r]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitValidation(t *testing.T) {
	p, _ := NewPartition(8, 8, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SplitCHW wrong shape must panic")
		}
	}()
	p.SplitCHW(tensor.New(1, 4, 4), 0)
}

func TestGatherValidation(t *testing.T) {
	p, _ := NewPartition(8, 8, 2, 2)
	full := tensor.New(1, 8, 8)
	parts := p.SplitCHW(full, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("GatherCHW wrong piece count must panic")
		}
	}()
	p.GatherCHW(parts[:2])
}

func TestBlockStringAndAccessors(t *testing.T) {
	b := Block{I0: 1, I1: 4, J0: 2, J1: 8}
	if b.Width() != 3 || b.Height() != 6 {
		t.Fatalf("accessors wrong")
	}
	if b.String() == "" {
		t.Fatalf("empty String")
	}
}

// TestHaloWindowIntoOverwritesReusedBuffer: HaloWindowInto writes
// every element of a reused buffer, matching the window cut out of the
// frame and pasted into a fresh zero tensor, on uneven blocks and for
// halos wider than a neighbouring block.
func TestHaloWindowIntoOverwritesReusedBuffer(t *testing.T) {
	p, _ := NewPartition(13, 11, 3, 2)
	full := tensor.Normal(tensor.NewRNG(1), 0, 1, 2, 11, 13)
	full4 := full.Reshape(1, 2, 11, 13)
	for halo := 0; halo <= 5; halo++ {
		for r := 0; r < p.Ranks(); r++ {
			cx, cy := p.CoordsOfRank(r)
			b := p.Block(cx, cy)
			g, miss := p.HaloBlock(cx, cy, halo)
			want := tensor.New(1, 2, b.Height()+2*halo, b.Width()+2*halo)
			tensor.SetSubImage(want, tensor.SubImage(full4, g.J0, g.J1, g.I0, g.I1), miss[2], miss[0])

			dst := make([]float64, want.Size())
			for i := range dst {
				dst[i] = math.NaN()
			}
			p.HaloWindowInto(dst, full, r, halo)
			if !tensor.FromSlice(dst, want.Shape()...).Equal(want) {
				t.Fatalf("halo %d rank %d: window differs from the cut-and-paste reference", halo, r)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HaloWindowInto into a buffer of the wrong size must panic")
		}
	}()
	p.HaloWindowInto(make([]float64, 3), full, 0, 1)
}
