package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/tensor"
)

// ExchangeMode is retained for bench/ only, with its two values and
// WithExchangeMode; both values select the one schedule (exchangeHalo).
type ExchangeMode int

const (
	Blocking ExchangeMode = iota
	Overlap
)

func WithExchangeMode(ExchangeMode) EngineOption { return func(*Engine) {} }

// haloTagBase separates rollout halo tags from other user tags (the
// result gather uses the mpi package's internal collective tags).
const haloTagBase = 300

// exchangeHalo is the scheme's only communication (§III): it copies the
// freshly predicted local frame [1,C,h,w] into the centre of
// ext [1,C,h+2·halo,w+2·halo] and fills the ring around it with the
// neighbours' strips, point to point, in two synchronous phases.
// Phase 1 swaps the centre's west/east columns. Phase 2 swaps
// south/north rows at the full extended width, so the columns received
// in phase 1 travel on into the neighbours' corners and no diagonal
// message is needed. A side without a neighbour is never written: it
// keeps the zeros the session's initial frames were cut with
// (decomp.HaloWindowInto) — the padding physical boundaries had in training.
func exchangeHalo(cart *mpi.Cart, local, ext *tensor.Tensor, halo int) {
	tensor.SetSubImage(ext, local, halo, halo)
	if halo == 0 {
		return
	}
	h, w := local.Dim(2), local.Dim(3)
	he, we := h+2*halo, w+2*halo

	sendStrip(cart, mpi.West, ext, halo, h+halo, halo, 2*halo)
	sendStrip(cart, mpi.East, ext, halo, h+halo, w, w+halo)
	recvStrip(cart, mpi.West, ext, halo, h+halo, 0, halo)
	recvStrip(cart, mpi.East, ext, halo, h+halo, w+halo, we)

	sendStrip(cart, mpi.South, ext, halo, 2*halo, 0, we)
	sendStrip(cart, mpi.North, ext, h, h+halo, 0, we)
	recvStrip(cart, mpi.South, ext, 0, halo, 0, we)
	recvStrip(cart, mpi.North, ext, h+halo, he, 0, we)
}

// sendStrip sends rows [y0,y1) × columns [x0,x1) of ext to the
// neighbour in direction d, if there is one.
func sendStrip(cart *mpi.Cart, d mpi.Direction, ext *tensor.Tensor, y0, y1, x0, x1 int) {
	if nb := cart.Neighbor(d); nb != mpi.NoNeighbor {
		cart.Comm().Send(nb, haloTagBase+int(d), tensor.SubImage(ext, y0, y1, x0, x1).Data())
	}
}

// recvStrip writes the strip the neighbour in direction d (if there is
// one) sent toward us — under the opposite direction's tag — into rows
// [y0,y1) × columns [x0,x1) of ext.
func recvStrip(cart *mpi.Cart, d mpi.Direction, ext *tensor.Tensor, y0, y1, x0, x1 int) {
	nb := cart.Neighbor(d)
	if nb == mpi.NoNeighbor {
		return
	}
	data := cart.Comm().Recv(nb, haloTagBase+int(d.Opposite()))
	c := ext.Dim(1)
	if len(data) != c*(y1-y0)*(x1-x0) {
		panic(fmt.Sprintf("core: %v halo message has %d values, want %d", d, len(data), c*(y1-y0)*(x1-x0)))
	}
	tensor.SetSubImage(ext, tensor.FromSlice(data, 1, c, y1-y0, x1-x0), y0, x0)
}
