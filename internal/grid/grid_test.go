package grid

import (
	"math"
	"testing"
)

func TestGridGeometry(t *testing.T) {
	g := NewUnitSquare(100)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Dx()-0.02) > 1e-15 || math.Abs(g.Dy()-0.02) > 1e-15 {
		t.Fatalf("spacing = %g, %g", g.Dx(), g.Dy())
	}
	if g.Points() != 10000 {
		t.Fatalf("Points = %d", g.Points())
	}
	// Cell centers: first at X0+dx/2, last at X1-dx/2.
	if math.Abs(g.XAt(0)-(-0.99)) > 1e-12 || math.Abs(g.XAt(99)-0.99) > 1e-12 {
		t.Fatalf("XAt ends = %g, %g", g.XAt(0), g.XAt(99))
	}
	// Symmetric about zero.
	if math.Abs(g.XAt(49)+g.XAt(50)) > 1e-12 {
		t.Fatalf("grid not symmetric")
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{Nx: 1, Ny: 4, X0: 0, X1: 1, Y0: 0, Y1: 1},
		{Nx: 4, Ny: 4, X0: 1, X1: 1, Y0: 0, Y1: 1},
		{Nx: 4, Ny: 4, X0: 0, X1: 1, Y0: 2, Y1: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad grid accepted", i)
		}
	}
}

func TestFieldAccess(t *testing.T) {
	g := NewUnitSquare(4)
	f := NewField(g, 3)
	f.Set(7, 2, 1, 3)
	if len(f.data) != 3*16 {
		t.Fatalf("Field data length %d", len(f.data))
	}
	cs := f.ChannelSlice(2)
	if cs[1*4+3] != 7 {
		t.Fatalf("Set or ChannelSlice misaligned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access must panic")
		}
	}()
	f.Set(0, 3, 0, 0)
}

func TestFieldTensorRoundTrip(t *testing.T) {
	g := NewUnitSquare(5)
	f := NewField(g, NumChannels)
	for c := 0; c < NumChannels; c++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 5; i++ {
				f.Set(float64(c*100+j*10+i), c, j, i)
			}
		}
	}
	tt := f.ToTensor()
	if tt.Rank() != 3 || tt.Dim(0) != NumChannels || tt.Dim(1) != 5 || tt.Dim(2) != 5 {
		t.Fatalf("tensor shape %v", tt.Shape())
	}
	if tt.At(2, 3, 4) != 234 {
		t.Fatalf("tensor value mismatch")
	}
	for i, v := range f.data {
		if tt.Data()[i] != v {
			t.Fatalf("tensor differs from the field at %d", i)
		}
	}
}

func TestChannelConstants(t *testing.T) {
	if NumChannels != 4 {
		t.Fatalf("NumChannels = %d", NumChannels)
	}
	seen := map[int]bool{ChanDensity: true, ChanPressure: true, ChanVelX: true, ChanVelY: true}
	if len(seen) != 4 {
		t.Fatalf("channel indices collide")
	}
	for _, n := range ChannelNames {
		if n == "" {
			t.Fatalf("empty channel name")
		}
	}
}
