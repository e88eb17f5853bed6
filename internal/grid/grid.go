// Package grid provides the structured two-dimensional grid geometry
// and multi-channel field container shared by the Euler solver, the
// dataset pipeline and the domain decomposition. Fields use the same
// channel-major (CHW) memory layout as the neural-network tensors so
// snapshots convert without copying surprises.
package grid

import (
	"fmt"

	"repro/internal/tensor"
)

// Channel indices of the four physical quantities carried by every
// field and every network input/output, fixed across the whole
// repository (paper §II: "pressure, density, velocity in x-direction
// and velocity in y-direction"; we order density first to match the
// presentation of Fig. 3).
const (
	ChanDensity  = 0
	ChanPressure = 1
	ChanVelX     = 2
	ChanVelY     = 3
	NumChannels  = 4
)

// ChannelNames maps channel indices to display names.
var ChannelNames = [NumChannels]string{"density", "pressure", "velocity-x", "velocity-y"}

// Grid describes a uniform Cartesian grid of Nx × Ny points covering
// the rectangle [X0,X1] × [Y0,Y1], with points at cell centers.
type Grid struct {
	Nx, Ny         int
	X0, Y0, X1, Y1 float64
}

// NewUnitSquare returns an n×n grid on [-1,1]², the paper's square
// domain with the pulse at the center P(0,0).
func NewUnitSquare(n int) Grid {
	return Grid{Nx: n, Ny: n, X0: -1, Y0: -1, X1: 1, Y1: 1}
}

// Validate reports configuration errors.
func (g Grid) Validate() error {
	if g.Nx < 2 || g.Ny < 2 {
		return fmt.Errorf("grid: need at least 2x2 points, got %dx%d", g.Nx, g.Ny)
	}
	if g.X1 <= g.X0 || g.Y1 <= g.Y0 {
		return fmt.Errorf("grid: empty extent [%g,%g]x[%g,%g]", g.X0, g.X1, g.Y0, g.Y1)
	}
	return nil
}

// Dx returns the grid spacing in x (cell-center spacing).
func (g Grid) Dx() float64 { return (g.X1 - g.X0) / float64(g.Nx) }

// Dy returns the grid spacing in y.
func (g Grid) Dy() float64 { return (g.Y1 - g.Y0) / float64(g.Ny) }

// XAt returns the x coordinate of column i (cell center).
func (g Grid) XAt(i int) float64 { return g.X0 + (float64(i)+0.5)*g.Dx() }

// YAt returns the y coordinate of row j (cell center).
func (g Grid) YAt(j int) float64 { return g.Y0 + (float64(j)+0.5)*g.Dy() }

// Points returns the total number of grid points.
func (g Grid) Points() int { return g.Nx * g.Ny }

// Field is a multi-channel scalar field on a Grid, stored
// channel-major: index (c, j, i) ↦ c·Ny·Nx + j·Nx + i.
type Field struct {
	G        Grid
	Channels int
	data     []float64
}

// NewField allocates a zero field with the given channel count.
func NewField(g Grid, channels int) *Field {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if channels <= 0 {
		panic(fmt.Sprintf("grid: non-positive channel count %d", channels))
	}
	return &Field{G: g, Channels: channels, data: make([]float64, channels*g.Nx*g.Ny)}
}

// Set assigns channel c at row j, column i.
func (f *Field) Set(v float64, c, j, i int) { f.data[f.idx(c, j, i)] = v }

func (f *Field) idx(c, j, i int) int {
	if c < 0 || c >= f.Channels || j < 0 || j >= f.G.Ny || i < 0 || i >= f.G.Nx {
		panic(fmt.Sprintf("grid: index (%d,%d,%d) out of range %dch %dx%d", c, j, i, f.Channels, f.G.Ny, f.G.Nx))
	}
	return (c*f.G.Ny+j)*f.G.Nx + i
}

// ChannelSlice returns the backing slice of one channel (not a copy).
func (f *Field) ChannelSlice(c int) []float64 {
	n := f.G.Nx * f.G.Ny
	return f.data[c*n : (c+1)*n]
}

// ToTensor copies the field into a CHW tensor [Channels, Ny, Nx].
func (f *Field) ToTensor() *tensor.Tensor {
	t := tensor.New(f.Channels, f.G.Ny, f.G.Nx)
	copy(t.Data(), f.data)
	return t
}
