package autodiff

import (
	"math"
	"testing"
	"testing/quick"
)

// Grad returns ∂out/∂x for a single input variable.
func Grad(out, x Var) float64 {
	return out.tape.Gradients(out)[x.idx]
}

func TestBasicArithmeticGradients(t *testing.T) {
	tp := NewTape()
	x := tp.Value(3)
	y := tp.Value(4)
	// f = (x+y)·(x-y) = x² - y²; df/dx = 2x = 6; df/dy = -2y = -8.
	f := x.Add(y).Mul(x.Sub(y))
	if f.Value() != -7 {
		t.Fatalf("f = %g", f.Value())
	}
	g := tp.Gradients(f)
	if g[x.idx] != 6 || g[y.idx] != -8 {
		t.Fatalf("grads = %g, %g", g[x.idx], g[y.idx])
	}
}

func TestDivGradient(t *testing.T) {
	tp := NewTape()
	x := tp.Value(2)
	y := tp.Value(5)
	f := x.Div(y) // df/dx = 1/5, df/dy = -2/25
	if math.Abs(Grad(f, x)-0.2) > 1e-15 {
		t.Fatalf("d/dx = %g", Grad(f, x))
	}
	if math.Abs(Grad(f, y)+0.08) > 1e-15 {
		t.Fatalf("d/dy = %g", Grad(f, y))
	}
}

func TestChainedElementaryFunctions(t *testing.T) {
	// f = exp(sin-ish chain): f = tanh(exp(x)·x + log(x)); check
	// against finite differences.
	eval := func(xv float64) (float64, float64) {
		tp := NewTape()
		x := tp.Value(xv)
		f := x.Exp().Mul(x).Add(x.Log()).Tanh()
		return f.Value(), Grad(f, x)
	}
	const h = 1e-7
	for _, xv := range []float64{0.3, 0.7, 1.2} {
		_, g := eval(xv)
		fp, _ := eval(xv + h)
		fm, _ := eval(xv - h)
		fd := (fp - fm) / (2 * h)
		if math.Abs(g-fd) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("x=%g: grad %g vs fd %g", xv, g, fd)
		}
	}
}

// Property: gradients of a random rational/absolute expression match
// finite differences.
func TestQuickGradMatchesFiniteDifference(t *testing.T) {
	f := func(rawX, rawY int8) bool {
		// Map into strictly positive ranges so sqrt/div stay smooth.
		xv := math.Abs(float64(rawX))/64 + 0.5
		yv := math.Abs(float64(rawY))/64 + 1
		eval := func(a, b float64) (float64, float64, float64) {
			tp := NewTape()
			x := tp.Value(a)
			y := tp.Value(b)
			out := x.Mul(y).Sqrt().Add(x.Square().Div(y)).Abs()
			g := tp.Gradients(out)
			return out.Value(), g[x.idx], g[y.idx]
		}
		_, gx, gy := eval(xv, yv)
		const h = 1e-6
		fxp, _, _ := eval(xv+h, yv)
		fxm, _, _ := eval(xv-h, yv)
		fyp, _, _ := eval(xv, yv+h)
		fym, _, _ := eval(xv, yv-h)
		fdx := (fxp - fxm) / (2 * h)
		fdy := (fyp - fym) / (2 * h)
		return math.Abs(gx-fdx) < 1e-4*(1+math.Abs(fdx)) &&
			math.Abs(gy-fdy) < 1e-4*(1+math.Abs(fdy))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActivationGradients(t *testing.T) {
	tp := NewTape()
	x := tp.Value(-0.5)
	lr := x.LeakyReLU(0.01)
	if lr.Value() != -0.005 || Grad(lr, x) != 0.01 {
		t.Fatalf("leaky relu: %g, %g", lr.Value(), Grad(lr, x))
	}
	y := tp.Value(0.5)
	r := y.ReLU()
	if r.Value() != 0.5 || Grad(r, y) != 1 {
		t.Fatalf("relu positive")
	}
	z := tp.Value(-1.0)
	r2 := z.ReLU()
	if r2.Value() != 0 || Grad(r2, z) != 0 {
		t.Fatalf("relu negative")
	}
	s := tp.Value(0.0).Sigmoid()
	if math.Abs(s.Value()-0.5) > 1e-15 {
		t.Fatalf("sigmoid(0) = %g", s.Value())
	}
}

func TestMaxSubgradient(t *testing.T) {
	tp := NewTape()
	a := tp.Value(2)
	b := tp.Value(3)
	m := a.Max(b)
	if m.Value() != 3 || Grad(m, a) != 0 || Grad(m, b) != 1 {
		t.Fatalf("max flows to wrong input")
	}
}

func TestSumDot(t *testing.T) {
	tp := NewTape()
	xs := []Var{tp.Value(1), tp.Value(2), tp.Value(3)}
	s := Sum(xs)
	if s.Value() != 6 {
		t.Fatalf("Sum = %g", s.Value())
	}
	// d(Sum)/dx_i = 1
	g := tp.Gradients(s)
	for i := range xs {
		if g[xs[i].idx] != 1 {
			t.Fatalf("Sum gradient wrong at %d", i)
		}
	}
}

func TestFanOutAccumulates(t *testing.T) {
	// f = x·x + x: gradient must accumulate across both uses: 2x + 1.
	tp := NewTape()
	x := tp.Value(3)
	f := x.Mul(x).Add(x)
	if got := Grad(f, x); got != 7 {
		t.Fatalf("fan-out gradient = %g, want 7", got)
	}
}

func TestSharedSubexpression(t *testing.T) {
	// g = x², f = g + g → df/dx = 4x.
	tp := NewTape()
	x := tp.Value(2)
	g := x.Square()
	f := g.Add(g)
	if got := Grad(f, x); got != 8 {
		t.Fatalf("shared subexpression gradient = %g, want 8", got)
	}
}

func TestMixedTapesPanic(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	a := t1.Value(1)
	b := t2.Value(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mixing tapes must panic")
		}
	}()
	a.Add(b)
}

func TestTapeLen(t *testing.T) {
	tp := NewTape()
	a := tp.Value(1)
	a.AddConst(2).Neg()
	if tp.Len() != 3 {
		t.Fatalf("Len = %d", tp.Len())
	}
}
