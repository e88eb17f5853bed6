package decomp

import "fmt"

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because tests
// in this package are about it: the point-to-owner lookup. Delete it
// together with the tests CHANGES.md (PR 24) lists for it.

// Contains reports whether global point (i, j) lies in the block.
func (b Block) Contains(i, j int) bool {
	return i >= b.I0 && i < b.I1 && j >= b.J0 && j < b.J1
}

// OwnerOf returns the rank owning global point (i, j).
func (p *Partition) OwnerOf(i, j int) int {
	if i < 0 || i >= p.Nx || j < 0 || j >= p.Ny {
		panic(fmt.Sprintf("decomp: point (%d,%d) outside %dx%d", i, j, p.Nx, p.Ny))
	}
	// Invert the balanced split: find cx with cx·Nx/Px ≤ i < (cx+1)·Nx/Px.
	cx := (i*p.Px + p.Px - 1) / p.Nx
	for cx > 0 && cx*p.Nx/p.Px > i {
		cx--
	}
	for (cx+1)*p.Nx/p.Px <= i {
		cx++
	}
	cy := (j*p.Py + p.Py - 1) / p.Ny
	for cy > 0 && cy*p.Ny/p.Py > j {
		cy--
	}
	for (cy+1)*p.Ny/p.Py <= j {
		cy++
	}
	return cy*p.Px + cx
}
