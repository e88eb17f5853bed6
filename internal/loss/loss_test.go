package loss

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func allLosses() []Loss {
	return []Loss{MSE{}, MAE{}, NewMAPE(), NewSMAPE(), NewHuber()}
}

func TestZeroAtTarget(t *testing.T) {
	g := tensor.NewRNG(1)
	x := tensor.Uniform(g, 0.5, 2, 3, 4) // away from zero so MAPE is well-defined
	for _, l := range allLosses() {
		v, grad := l.Eval(x.Clone(), x)
		if v != 0 {
			t.Errorf("%s: loss at target = %g, want 0", l.Name(), v)
		}
		if grad.AbsMax() != 0 {
			t.Errorf("%s: gradient at target nonzero", l.Name())
		}
	}
}

func TestMSEKnownValue(t *testing.T) {
	p := tensor.FromSlice([]float64{1, 2, 3, 4}, 4)
	q := tensor.FromSlice([]float64{1, 2, 3, 6}, 4)
	v, grad := MSE{}.Eval(p, q)
	if v != 1 { // (0+0+0+4)/4
		t.Fatalf("MSE = %g, want 1", v)
	}
	if grad.At(3) != -1 { // 2·(4-6)/4
		t.Fatalf("MSE grad = %v", grad.Data())
	}
}

func TestMAEKnownValue(t *testing.T) {
	p := tensor.FromSlice([]float64{0, 2}, 2)
	q := tensor.FromSlice([]float64{1, 0}, 2)
	v, grad := MAE{}.Eval(p, q)
	if v != 1.5 {
		t.Fatalf("MAE = %g, want 1.5", v)
	}
	if grad.At(0) != -0.5 || grad.At(1) != 0.5 {
		t.Fatalf("MAE grad = %v", grad.Data())
	}
}

func TestMAPEKnownValue(t *testing.T) {
	// Paper Eq. 7: 100%/m Σ |(p-t)/t|
	p := tensor.FromSlice([]float64{1.1, 4}, 2)
	q := tensor.FromSlice([]float64{1.0, 5}, 2)
	v, _ := NewMAPE().Eval(p, q)
	want := 100.0 / 2 * (0.1/1.0 + 1.0/5.0)
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("MAPE = %g, want %g", v, want)
	}
}

func TestMAPEEpsGuard(t *testing.T) {
	// Target exactly zero: raw MAPE is singular; the guard must keep
	// the value and gradient finite.
	p := tensor.FromSlice([]float64{0.5}, 1)
	q := tensor.FromSlice([]float64{0}, 1)
	v, grad := NewMAPE().Eval(p, q)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("MAPE with zero target not finite: %g", v)
	}
	if grad.HasNaN() {
		t.Fatalf("MAPE gradient not finite")
	}
}

func TestMAPEScaleProportionality(t *testing.T) {
	// The paper's rationale: MAPE penalizes relative error, so scaling
	// pred and target together leaves the loss unchanged (unlike MSE).
	g := tensor.NewRNG(2)
	p := tensor.Uniform(g, 1, 2, 10)
	q := tensor.Uniform(g, 1, 2, 10)
	p1000, q1000 := p.Clone().ScaleInPlace(1000), q.Clone().ScaleInPlace(1000)
	v1, _ := NewMAPE().Eval(p, q)
	v2, _ := NewMAPE().Eval(p1000, q1000)
	if math.Abs(v1-v2) > 1e-9*v1 {
		t.Fatalf("MAPE not scale invariant: %g vs %g", v1, v2)
	}
	m1, _ := MSE{}.Eval(p, q)
	m2, _ := MSE{}.Eval(p1000, q1000)
	if m2 < m1*1e5 {
		t.Fatalf("MSE should blow up with scale: %g vs %g", m1, m2)
	}
}

func TestHuberRegimes(t *testing.T) {
	h := Huber{Delta: 1}
	// quadratic regime
	p := tensor.FromSlice([]float64{0.5}, 1)
	q := tensor.FromSlice([]float64{0}, 1)
	v, grad := h.Eval(p, q)
	if math.Abs(v-0.125) > 1e-12 {
		t.Fatalf("Huber quadratic = %g, want 0.125", v)
	}
	if math.Abs(grad.At(0)-0.5) > 1e-12 {
		t.Fatalf("Huber quadratic grad = %g", grad.At(0))
	}
	// linear regime
	p = tensor.FromSlice([]float64{3}, 1)
	v, grad = h.Eval(p, q)
	if math.Abs(v-2.5) > 1e-12 {
		t.Fatalf("Huber linear = %g, want 2.5", v)
	}
	if math.Abs(grad.At(0)-1) > 1e-12 {
		t.Fatalf("Huber linear grad = %g", grad.At(0))
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	for _, l := range allLosses() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch must panic", l.Name())
				}
			}()
			l.Eval(tensor.New(2), tensor.New(3))
		}()
	}
}

// Property: all losses are non-negative for random inputs.
func TestQuickNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		p := tensor.Normal(g, 0, 2, 16)
		q := tensor.Normal(g, 0, 2, 16)
		for _, l := range allLosses() {
			v, _ := l.Eval(p, q)
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: gradients match central finite differences for every loss
// at generic points (kept away from the non-smooth kinks).
func TestQuickGradientsMatchFiniteDifference(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		p := tensor.Uniform(g, 0.5, 2.0, 8)
		q := tensor.Uniform(g, 2.5, 4.0, 8) // disjoint ranges: |p-t| bounded away from 0
		const h = 1e-6
		for _, l := range allLosses() {
			_, grad := l.Eval(p, q)
			for i := 0; i < p.Size(); i++ {
				orig := p.Data()[i]
				p.Data()[i] = orig + h
				lp, _ := l.Eval(p, q)
				p.Data()[i] = orig - h
				lm, _ := l.Eval(p, q)
				p.Data()[i] = orig
				fd := (lp - lm) / (2 * h)
				if math.Abs(fd-grad.At(i)) > 1e-4*(1+math.Abs(fd)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLossNames(t *testing.T) {
	want := map[string]bool{"mse": true, "mae": true, "mape": true, "smape": true, "huber": true}
	for _, l := range allLosses() {
		if !want[l.Name()] {
			t.Errorf("unexpected loss name %q", l.Name())
		}
	}
}
