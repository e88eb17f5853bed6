// Package decomp implements the spatial domain decomposition at the
// heart of the paper's scheme (§III, Fig. 2): each training snapshot is
// split into Px × Py rectangular subdomains, one per MPI rank, and each
// rank trains an independent network on its block. The package provides
// the balanced partition arithmetic, halo-extended windows (the
// "overlapping inputs for neighbouring processes" of §III), and the
// split/gather operations between full-domain tensors and per-rank
// subdomain tensors.
//
// Rank ↔ block mapping is row-major and identical to mpi.Cart:
// rank = cy·Px + cx.
package decomp

import (
	"fmt"

	"repro/internal/tensor"
)

// Partition describes the decomposition of an Nx × Ny point grid into
// Px × Py blocks. Blocks are balanced: block cx covers columns
// [cx·Nx/Px, (cx+1)·Nx/Px), so sizes differ by at most one point.
type Partition struct {
	Nx, Ny int // global grid points per direction
	Px, Py int // process grid
}

// NewPartition validates and builds a partition.
func NewPartition(nx, ny, px, py int) (*Partition, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("decomp: non-positive grid %dx%d", nx, ny)
	}
	if px <= 0 || py <= 0 {
		return nil, fmt.Errorf("decomp: non-positive process grid %dx%d", px, py)
	}
	if px > nx || py > ny {
		return nil, fmt.Errorf("decomp: more blocks (%dx%d) than points (%dx%d)", px, py, nx, ny)
	}
	return &Partition{Nx: nx, Ny: ny, Px: px, Py: py}, nil
}

// Ranks returns the total number of blocks (= MPI ranks).
func (p *Partition) Ranks() int { return p.Px * p.Py }

// Block is a half-open index window [I0,I1) × [J0,J1) in global grid
// coordinates (I indexes columns/x, J rows/y).
type Block struct {
	I0, I1, J0, J1 int
}

// Width returns the number of columns in the block.
func (b Block) Width() int { return b.I1 - b.I0 }

// Height returns the number of rows in the block.
func (b Block) Height() int { return b.J1 - b.J0 }

// String implements fmt.Stringer.
func (b Block) String() string {
	return fmt.Sprintf("[%d:%d)x[%d:%d)", b.I0, b.I1, b.J0, b.J1)
}

// Block returns the window of the block at process coordinates
// (cx, cy).
func (p *Partition) Block(cx, cy int) Block {
	if cx < 0 || cx >= p.Px || cy < 0 || cy >= p.Py {
		panic(fmt.Sprintf("decomp: block coords (%d,%d) outside %dx%d", cx, cy, p.Px, p.Py))
	}
	return Block{
		I0: cx * p.Nx / p.Px, I1: (cx + 1) * p.Nx / p.Px,
		J0: cy * p.Ny / p.Py, J1: (cy + 1) * p.Ny / p.Py,
	}
}

// BlockOfRank returns the window of the given rank (row-major
// rank = cy·Px + cx, matching mpi.Cart).
func (p *Partition) BlockOfRank(rank int) Block {
	if rank < 0 || rank >= p.Ranks() {
		panic(fmt.Sprintf("decomp: rank %d outside %d blocks", rank, p.Ranks()))
	}
	return p.Block(rank%p.Px, rank/p.Px)
}

// CoordsOfRank returns the process coordinates of a rank.
func (p *Partition) CoordsOfRank(rank int) (cx, cy int) {
	if rank < 0 || rank >= p.Ranks() {
		panic(fmt.Sprintf("decomp: rank %d outside %d blocks", rank, p.Ranks()))
	}
	return rank % p.Px, rank / p.Px
}

// HaloBlock returns the block at (cx, cy) grown by halo points on
// every side and clamped to the domain. The second return value
// reports, per side, how many of the requested halo points were cut
// off by the physical boundary (west, east, south, north) — the
// caller zero-pads those, which is exactly the paper's treatment of
// subdomains that touch the domain boundary.
func (p *Partition) HaloBlock(cx, cy, halo int) (Block, [4]int) {
	if halo < 0 {
		panic(fmt.Sprintf("decomp: negative halo %d", halo))
	}
	b := p.Block(cx, cy)
	g := Block{I0: b.I0 - halo, I1: b.I1 + halo, J0: b.J0 - halo, J1: b.J1 + halo}
	var missing [4]int // west, east, south, north
	if g.I0 < 0 {
		missing[0] = -g.I0
		g.I0 = 0
	}
	if g.I1 > p.Nx {
		missing[1] = g.I1 - p.Nx
		g.I1 = p.Nx
	}
	if g.J0 < 0 {
		missing[2] = -g.J0
		g.J0 = 0
	}
	if g.J1 > p.Ny {
		missing[3] = g.J1 - p.Ny
		g.J1 = p.Ny
	}
	return g, missing
}

// HaloWindowInto writes rank's halo-extended window of the
// full-domain CHW tensor t [C, Ny, Nx] into dst, the data of a caller's
// [C, height+2·halo, width+2·halo] tensor or view: interior data where
// a neighbouring block provides it, zeros where the window crosses the
// physical boundary. Every element of dst is written, so a reused
// buffer needs no clearing.
func (p *Partition) HaloWindowInto(dst []float64, t *tensor.Tensor, rank, halo int) {
	if t.Rank() != 3 || t.Dim(1) != p.Ny || t.Dim(2) != p.Nx {
		panic(fmt.Sprintf("decomp: tensor %v does not match grid %dx%d", t.Shape(), p.Nx, p.Ny))
	}
	cx, cy := p.CoordsOfRank(rank)
	b := p.Block(cx, cy)
	g, miss := p.HaloBlock(cx, cy, halo)
	c, h, w := t.Dim(0), b.Height()+2*halo, b.Width()+2*halo
	if len(dst) != c*h*w {
		panic(fmt.Sprintf("decomp: window buffer holds %d values, rank %d needs %dx%dx%d", len(dst), rank, c, h, w))
	}
	src := t.Data()
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			row := dst[(ch*h+y)*w : (ch*h+y+1)*w]
			gy := b.J0 - halo + y
			if gy < g.J0 || gy >= g.J1 {
				clear(row)
				continue
			}
			line := src[(ch*p.Ny+gy)*p.Nx:]
			clear(row[:miss[0]])
			copy(row[miss[0]:w-miss[1]], line[g.I0:g.I1])
			clear(row[w-miss[1]:])
		}
	}
}

// SplitCHW cuts a full-domain CHW tensor [C, Ny, Nx] into one tensor
// per rank, each holding HaloWindowInto's window: with halo = 0 the
// bare block, with halo > 0 the [C, height+2·halo, width+2·halo]
// "overlapping inputs" of §III used by the neighbour-padding strategy.
func (p *Partition) SplitCHW(t *tensor.Tensor, halo int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, p.Ranks())
	for r := range out {
		b := p.BlockOfRank(r)
		piece := tensor.New(t.Dim(0), b.Height()+2*halo, b.Width()+2*halo)
		p.HaloWindowInto(piece.Data(), t, r, halo)
		out[r] = piece
	}
	return out
}

// GatherCHW reassembles per-rank interior tensors (no halo) into a
// full-domain CHW tensor, the inverse of SplitCHW with halo = 0.
func (p *Partition) GatherCHW(parts []*tensor.Tensor) *tensor.Tensor {
	if len(parts) != p.Ranks() {
		panic(fmt.Sprintf("decomp: GatherCHW got %d pieces, need %d", len(parts), p.Ranks()))
	}
	c := parts[0].Dim(0)
	full := tensor.New(c, p.Ny, p.Nx)
	full4 := full.Reshape(1, c, p.Ny, p.Nx)
	for r, piece := range parts {
		b := p.BlockOfRank(r)
		if piece.Rank() != 3 || piece.Dim(0) != c || piece.Dim(1) != b.Height() || piece.Dim(2) != b.Width() {
			panic(fmt.Sprintf("decomp: GatherCHW piece %d shape %v does not match block %v", r, piece.Shape(), b))
		}
		tensor.SetSubImage(full4, piece.Reshape(1, c, b.Height(), b.Width()), b.J0, b.I0)
	}
	return full
}
