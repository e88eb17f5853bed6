package mpi

import "fmt"

// Direction identifies a neighbour in a 2-D Cartesian communicator.
type Direction int

// The four 2-D neighbour directions. West/East move along x (columns),
// South/North along y (rows).
const (
	West Direction = iota
	East
	South
	North
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case West:
		return "west"
	case East:
		return "east"
	case South:
		return "south"
	case North:
		return "north"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Opposite returns the reverse direction, used to match a send with
// the neighbour's receive in halo exchanges.
func (d Direction) Opposite() Direction {
	switch d {
	case West:
		return East
	case East:
		return West
	case South:
		return North
	case North:
		return South
	}
	panic(fmt.Sprintf("mpi: invalid direction %d", int(d)))
}

// NoNeighbor is returned by Cart.Neighbor at a non-periodic boundary.
const NoNeighbor = -1

// Cart is a 2-D Cartesian view over a Comm: ranks are arranged
// row-major on a Px × Py process grid, and each rank can look up its
// coordinates and neighbours, mirroring MPI_Cart_create.
type Cart struct {
	comm     *Comm
	px, py   int
	periodic bool
}

// NewCart arranges the communicator's ranks on a px × py grid
// (row-major: rank = cy*px + cx). px*py must equal the world size.
func NewCart(c *Comm, px, py int, periodic bool) *Cart {
	if px <= 0 || py <= 0 || px*py != c.Size() {
		panic(fmt.Sprintf("mpi: Cart dims %dx%d do not match world size %d", px, py, c.Size()))
	}
	return &Cart{comm: c, px: px, py: py, periodic: periodic}
}

// Comm returns the underlying communicator.
func (ct *Cart) Comm() *Comm { return ct.comm }

// Coords returns this rank's grid coordinates (cx, cy).
func (ct *Cart) Coords() (cx, cy int) {
	return ct.comm.rank % ct.px, ct.comm.rank / ct.px
}

// RankAt returns the rank at grid coordinates (cx, cy), applying
// periodic wrap-around if enabled. It returns NoNeighbor for
// out-of-range coordinates on a non-periodic grid.
func (ct *Cart) RankAt(cx, cy int) int {
	if ct.periodic {
		cx = ((cx % ct.px) + ct.px) % ct.px
		cy = ((cy % ct.py) + ct.py) % ct.py
	}
	if cx < 0 || cx >= ct.px || cy < 0 || cy >= ct.py {
		return NoNeighbor
	}
	return cy*ct.px + cx
}

// Neighbor returns the rank of the neighbour in the given direction,
// or NoNeighbor at a non-periodic boundary.
func (ct *Cart) Neighbor(d Direction) int {
	cx, cy := ct.Coords()
	switch d {
	case West:
		return ct.RankAt(cx-1, cy)
	case East:
		return ct.RankAt(cx+1, cy)
	case South:
		return ct.RankAt(cx, cy-1)
	case North:
		return ct.RankAt(cx, cy+1)
	}
	panic(fmt.Sprintf("mpi: invalid direction %d", int(d)))
}

// BalancedDims factors p into the most square px × py grid
// (px >= py, px*py == p), matching MPI_Dims_create's 2-D behaviour.
func BalancedDims(p int) (px, py int) {
	if p <= 0 {
		panic(fmt.Sprintf("mpi: BalancedDims of non-positive %d", p))
	}
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return p / best, best
}
