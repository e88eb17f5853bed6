package mpi

import (
	"testing"
	"testing/quick"
)

func TestBalancedDims(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 2, 2}, {6, 3, 2},
		{8, 4, 2}, {12, 4, 3}, {16, 4, 4}, {64, 8, 8}, {7, 7, 1},
	}
	for _, c := range cases {
		px, py := BalancedDims(c.p)
		if px != c.px || py != c.py {
			t.Errorf("BalancedDims(%d) = %d,%d want %d,%d", c.p, px, py, c.px, c.py)
		}
	}
}

// Property: BalancedDims always multiplies back to p with px >= py.
func TestQuickBalancedDimsInvariant(t *testing.T) {
	f := func(raw uint16) bool {
		p := int(raw%512) + 1
		px, py := BalancedDims(p)
		return px*py == p && px >= py && py >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCartCoordsRoundTrip(t *testing.T) {
	w := NewWorld(6)
	err := w.Run(func(c *Comm) {
		ct := NewCart(c, 3, 2, false)
		cx, cy := ct.Coords()
		if ct.RankAt(cx, cy) != c.Rank() {
			t.Errorf("rank %d: RankAt(Coords()) = %d", c.Rank(), ct.RankAt(cx, cy))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// neighbors looks up all four neighbour ranks, indexed by Direction.
func neighbors(ct *Cart) [4]int {
	var n [4]int
	for d := West; d <= North; d++ {
		n[d] = ct.Neighbor(d)
	}
	return n
}

func TestCartNeighborsNonPeriodic(t *testing.T) {
	// 3x2 grid, row-major:
	//   y=1:  3 4 5
	//   y=0:  0 1 2
	w := NewWorld(6)
	err := w.Run(func(c *Comm) {
		ct := NewCart(c, 3, 2, false)
		n := neighbors(ct)
		switch c.Rank() {
		case 0:
			if n[West] != NoNeighbor || n[East] != 1 || n[South] != NoNeighbor || n[North] != 3 {
				t.Errorf("rank 0 neighbors = %v", n)
			}
		case 4:
			if n[West] != 3 || n[East] != 5 || n[South] != 1 || n[North] != NoNeighbor {
				t.Errorf("rank 4 neighbors = %v", n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartNeighborsPeriodic(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		ct := NewCart(c, 2, 2, true)
		if c.Rank() == 0 {
			n := neighbors(ct)
			if n[West] != 1 || n[East] != 1 || n[South] != 2 || n[North] != 2 {
				t.Errorf("periodic rank 0 neighbors = %v", n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirectionOpposite(t *testing.T) {
	for d := Direction(0); d <= North; d++ {
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not involutive for %v", d)
		}
		if d.String() == "" {
			t.Errorf("empty String for %v", int(d))
		}
	}
}

// Property: on any non-periodic grid, neighbour relations are
// symmetric: if b is a's east neighbour then a is b's west neighbour.
func TestQuickNeighborSymmetry(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw%12) + 1
		px, py := BalancedDims(p)
		ok := true
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			ct := NewCart(c, px, py, false)
			for d := Direction(0); d <= North; d++ {
				nb := ct.Neighbor(d)
				if nb == NoNeighbor {
					continue
				}
				nx, ny := nb%px, nb/px
				// Reconstruct the reverse direction from the neighbour's view.
				back := ct.RankAt(nx+dxOf(d.Opposite()), ny+dyOf(d.Opposite()))
				if back != c.Rank() {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func dxOf(d Direction) int {
	switch d {
	case West:
		return -1
	case East:
		return 1
	}
	return 0
}

func dyOf(d Direction) int {
	switch d {
	case South:
		return -1
	case North:
		return 1
	}
	return 0
}

func TestExchangeHalos(t *testing.T) {
	// Each rank sends its rank number in every direction; each rank
	// must receive exactly its neighbours' ranks.
	const px, py = 3, 3
	w := NewWorld(px * py)
	err := w.Run(func(c *Comm) {
		ct := NewCart(c, px, py, false)
		got := map[Direction]float64{}
		ct.ExchangeHalos(
			func(d Direction) []float64 { return []float64{float64(c.Rank())} },
			func(d Direction, data []float64) { got[d] = data[0] },
		)
		for d := Direction(0); d <= North; d++ {
			nb := ct.Neighbor(d)
			if nb == NoNeighbor {
				if _, ok := got[d]; ok {
					t.Errorf("rank %d received from missing neighbour %v", c.Rank(), d)
				}
				continue
			}
			if got[d] != float64(nb) {
				t.Errorf("rank %d dir %v: got %g want %d", c.Rank(), d, got[d], nb)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewCartValidation(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		defer func() { recover() }()
		NewCart(c, 3, 2, false)
		t.Errorf("NewCart with wrong dims must panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}
