package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	got := x.Shape()
	want := []int{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Shape = %v, want %v", got, want)
		}
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("New tensor not zero-filled: %v", v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	assertPanics(t, func() { New() })
	assertPanics(t, func() { New(2, -1) })
	assertPanics(t, func() { FromSlice([]float64{1, 2}, 3) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	f()
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if got := x.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %g, want 5", got)
	}
	if got := x.Offset(1, 2); got != 5 {
		t.Fatalf("Offset(1,2) = %d, want 5", got)
	}
	assertPanics(t, func() { x.At(2, 0) })
	assertPanics(t, func() { x.At(0) })
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	sum := a.Add(b)
	if !sum.Equal(FromSlice([]float64{6, 8, 10, 12}, 2, 2)) {
		t.Fatalf("Add = %v", sum)
	}
	diff := b.Sub(a)
	if !diff.Equal(FromSlice([]float64{4, 4, 4, 4}, 2, 2)) {
		t.Fatalf("Sub = %v", diff)
	}
	// original a unchanged by the non-in-place ops
	if !a.Equal(FromSlice([]float64{1, 2, 3, 4}, 2, 2)) {
		t.Fatalf("a mutated: %v", a)
	}
}

func TestInPlaceArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 4)
	b := FromSlice([]float64{1, 1, 1, 1}, 4)
	a.AddScaled(2, b)
	if !a.Equal(FromSlice([]float64{3, 4, 5, 6}, 4)) {
		t.Fatalf("AddScaled: %v", a)
	}
	a.ScaleInPlace(0.5)
	if !a.Equal(FromSlice([]float64{1.5, 2, 2.5, 3}, 4)) {
		t.Fatalf("ScaleInPlace: %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(4)
	assertPanics(t, func() { a.Add(b) })
	assertPanics(t, func() { a.AddScaled(1, b) })
	assertPanics(t, func() { a.CopyFrom(New(5)) })
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 4, -1}, 4)
	if x.Max() != 4 {
		t.Fatalf("Max = %g", x.Max())
	}
	if x.Min() != -3 {
		t.Fatalf("Min = %g", x.Min())
	}
	if x.AbsMax() != 4 {
		t.Fatalf("AbsMax = %g", x.AbsMax())
	}
	want := math.Sqrt(9 + 1 + 16 + 1)
	if math.Abs(x.Norm2()-want) > 1e-15 {
		t.Fatalf("Norm2 = %g, want %g", x.Norm2(), want)
	}
	if x.Dot(x) != 27 {
		t.Fatalf("Dot = %g, want 27", x.Dot(x))
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatalf("Reshape must share data")
	}
	assertPanics(t, func() { x.Reshape(4, 2) })
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(42, 0)
	if x.At(0) != 1 {
		t.Fatalf("Clone must copy data")
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float64{1, math.NaN()}, 2)
	if !x.HasNaN() {
		t.Fatalf("HasNaN missed NaN")
	}
	y := FromSlice([]float64{1, math.Inf(1)}, 2)
	if !y.HasNaN() {
		t.Fatalf("HasNaN missed Inf")
	}
	z := FromSlice([]float64{1, 2}, 2)
	if z.HasNaN() {
		t.Fatalf("HasNaN false positive")
	}
}

// Property: Add is commutative.
func TestQuickAddCommutative(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), raw...), len(raw))
		b := Uniform(NewRNG(1), -1, 1, len(raw))
		return a.Add(b).AllClose(b.Add(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a + (-1)*a == 0.
func TestQuickAdditiveInverse(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		a := FromSlice(append([]float64(nil), raw...), len(raw))
		z := a.Add(a.Clone().ScaleInPlace(-1))
		return z.AbsMax() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(a,a) == Norm2(a)^2 within tolerance.
func TestQuickDotNormConsistent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := int(n%32) + 1
		a := Normal(NewRNG(seed), 0, 1, m)
		d := a.Dot(a)
		nn := a.Norm2()
		return math.Abs(d-nn*nn) <= 1e-9*(1+math.Abs(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPadCropRoundTrip(t *testing.T) {
	g := NewRNG(7)
	x := Uniform(g, -1, 1, 2, 3, 5, 4)
	p := Pad2D(x, 2)
	if p.Dim(2) != 9 || p.Dim(3) != 8 {
		t.Fatalf("Pad2D shape = %v", p.Shape())
	}
	back := Crop2D(p, 2)
	if !back.Equal(x) {
		t.Fatalf("Crop2D(Pad2D(x)) != x")
	}
	// padding border must be zero
	if p.At(0, 0, 0, 0) != 0 || p.At(1, 2, 8, 7) != 0 {
		t.Fatalf("Pad2D border not zero")
	}
}

// Property: pad-then-crop is identity for random shapes and pads.
func TestQuickPadCropIdentity(t *testing.T) {
	f := func(seed int64, hRaw, wRaw, padRaw uint8) bool {
		h := int(hRaw%6) + 1
		w := int(wRaw%6) + 1
		pad := int(padRaw % 4)
		x := Normal(NewRNG(seed), 0, 1, 1, 2, h, w)
		return Crop2D(Pad2D(x, pad), pad).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubImageSetSubImage(t *testing.T) {
	x := New(1, 1, 4, 4)
	for i := 0; i < 16; i++ {
		x.Data()[i] = float64(i)
	}
	s := SubImage(x, 1, 3, 1, 3)
	want := FromSlice([]float64{5, 6, 9, 10}, 1, 1, 2, 2)
	if !s.Equal(want) {
		t.Fatalf("SubImage = %v, want %v", s.Data(), want.Data())
	}
	y := New(1, 1, 4, 4)
	SetSubImage(y, s, 1, 1)
	if y.At(0, 0, 1, 1) != 5 || y.At(0, 0, 2, 2) != 10 || y.At(0, 0, 0, 0) != 0 {
		t.Fatalf("SetSubImage wrong placement: %v", y.Data())
	}
	assertPanics(t, func() { SubImage(x, 0, 5, 0, 1) })
	assertPanics(t, func() { SetSubImage(y, s, 3, 3) })
}

// Property: SubImage then SetSubImage into a clone restores the original.
func TestQuickSubImageRoundTrip(t *testing.T) {
	f := func(seed int64, hRaw, wRaw uint8) bool {
		h := int(hRaw%5) + 2
		w := int(wRaw%5) + 2
		x := Normal(NewRNG(seed), 0, 1, 2, 3, h, w)
		s := SubImage(x, 1, h, 1, w)
		y := x.Clone()
		SetSubImage(y, s, 1, 1)
		return y.Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStackUnstack(t *testing.T) {
	g := NewRNG(3)
	a := Uniform(g, 0, 1, 2, 3, 3)
	b := Uniform(g, 0, 1, 2, 3, 3)
	st := Stack([]*Tensor{a, b})
	if st.Dim(0) != 2 || st.Dim(1) != 2 || st.Dim(2) != 3 {
		t.Fatalf("Stack shape = %v", st.Shape())
	}
	us := Unstack(st)
	if !us[0].Equal(a) || !us[1].Equal(b) {
		t.Fatalf("Unstack(Stack) != identity")
	}
}

func TestChannelExtract(t *testing.T) {
	x := New(2, 3, 2, 2)
	x.Set(7, 1, 2, 1, 0)
	ch := Channel(x, 1, 2)
	if ch.At(1, 0) != 7 {
		t.Fatalf("Channel extraction wrong")
	}
	if ch.Rank() != 2 {
		t.Fatalf("Channel rank = %d", ch.Rank())
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !c.AllClose(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
	assertPanics(t, func() { MatMul(a, a) })
}

// Property: MatMul distributes over addition: A(B+C) == AB + AC.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		a := Normal(g, 0, 1, 3, 4)
		b := Normal(g, 0, 1, 4, 2)
		c := Normal(g, 0, 1, 4, 2)
		left := MatMul(a, b.Add(c))
		right := MatMul(a, b).Add(MatMul(a, c))
		return left.AllClose(right, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGobRoundTrip(t *testing.T) {
	x := Normal(NewRNG(11), 0, 2, 2, 3, 4)
	b, err := x.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var y Tensor
	if err := y.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if !y.Equal(x) {
		t.Fatalf("gob round trip mismatch")
	}
	if y.Offset(1, 2, 3) != x.Offset(1, 2, 3) {
		t.Fatalf("strides not restored")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Uniform(NewRNG(42), 0, 1, 10)
	b := Uniform(NewRNG(42), 0, 1, 10)
	if !a.Equal(b) {
		t.Fatalf("same seed must give same tensor")
	}
	c := Uniform(NewRNG(43), 0, 1, 10)
	if a.Equal(c) {
		t.Fatalf("different seeds gave identical tensors (suspicious)")
	}
}

func TestUniformRange(t *testing.T) {
	x := Uniform(NewRNG(1), -2, 3, 1000)
	if x.Min() < -2 || x.Max() >= 3 {
		t.Fatalf("Uniform out of range: [%g,%g]", x.Min(), x.Max())
	}
}

func TestNormalMoments(t *testing.T) {
	x := Normal(NewRNG(5), 1.5, 2.0, 20000)
	sum, varSum := 0.0, 0.0
	for _, v := range x.Data() {
		sum += v
		d := v - 1.5
		varSum += d * d
	}
	if mean := sum / float64(x.Size()); math.Abs(mean-1.5) > 0.1 {
		t.Fatalf("Normal mean = %g, want ≈1.5", mean)
	}
	std := math.Sqrt(varSum / float64(x.Size()))
	if math.Abs(std-2.0) > 0.1 {
		t.Fatalf("Normal std = %g, want ≈2", std)
	}
}

func TestApply(t *testing.T) {
	x := FromSlice([]float64{1, 4, 9}, 3)
	y := x.Apply(math.Sqrt)
	if !y.AllClose(FromSlice([]float64{1, 2, 3}, 3), 1e-15) {
		t.Fatalf("Apply = %v", y.Data())
	}
	x.ApplyInPlace(func(v float64) float64 { return -v })
	if !x.Equal(FromSlice([]float64{-1, -4, -9}, 3)) {
		t.Fatalf("ApplyInPlace = %v", x.Data())
	}
}
