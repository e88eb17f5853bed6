package grid

import "fmt"

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because tests
// in this package are about it: subgrid geometry and Field.Clone.
// Delete each together with the tests CHANGES.md (PR 24) lists for it.

// Sub returns the geometry of the subgrid covering columns [i0,i1)
// and rows [j0,j1) of g — the physical extent of a subdomain in the
// decomposition.
func (g Grid) Sub(i0, i1, j0, j1 int) Grid {
	if i0 < 0 || j0 < 0 || i1 > g.Nx || j1 > g.Ny || i0 >= i1 || j0 >= j1 {
		panic(fmt.Sprintf("grid: invalid subgrid [%d:%d)x[%d:%d) of %dx%d", i0, i1, j0, j1, g.Nx, g.Ny))
	}
	return Grid{
		Nx: i1 - i0, Ny: j1 - j0,
		X0: g.X0 + float64(i0)*g.Dx(), X1: g.X0 + float64(i1)*g.Dx(),
		Y0: g.Y0 + float64(j0)*g.Dy(), Y1: g.Y0 + float64(j1)*g.Dy(),
	}
}

// Clone returns a deep copy.
func (f *Field) Clone() *Field {
	c := NewField(f.G, f.Channels)
	copy(c.data, f.data)
	return c
}
