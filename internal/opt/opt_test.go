package opt

import (
	"math"
	"testing"

	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadModel is a trivial trainable model y = w (one dense layer on a
// constant input would also work, but this isolates the optimizer).
type quadModel struct {
	p *nn.Param
}

func newQuadModel(init []float64) *quadModel {
	return &quadModel{p: nn.NewParam("w", tensor.FromSlice(append([]float64(nil), init...), len(init)))}
}

func (m *quadModel) Name() string                             { return "quad" }
func (m *quadModel) Forward(x *tensor.Tensor) *tensor.Tensor  { return m.p.Value.Clone() }
func (m *quadModel) Backward(g *tensor.Tensor) *tensor.Tensor { m.p.Grad.AddScaled(1, g); return nil }
func (m *quadModel) Params() []*nn.Param                      { return []*nn.Param{m.p} }

// minimize runs steps of "loss = ½‖w - target‖²" and returns the final
// distance to the target.
func minimize(o Optimizer, steps int, start, target []float64) float64 {
	m := newQuadModel(start)
	tgt := tensor.FromSlice(append([]float64(nil), target...), len(target))
	for s := 0; s < steps; s++ {
		nn.ZeroGrads(m)
		// grad of ½‖w-t‖² is (w-t)
		g := m.p.Value.Sub(tgt)
		m.Backward(g)
		o.Step(m)
	}
	d := m.p.Value.Sub(tgt).Data()
	sq := 0.0
	for _, v := range d {
		sq += v * v
	}
	return math.Sqrt(sq)
}

func TestSGDConverges(t *testing.T) {
	d := minimize(NewSGD(0.1), 200, []float64{5, -3}, []float64{1, 2})
	if d > 1e-6 {
		t.Fatalf("SGD residual = %g", d)
	}
}

func TestMomentumConverges(t *testing.T) {
	d := minimize(NewMomentum(0.1, 0.9), 400, []float64{5, -3}, []float64{1, 2})
	if d > 1e-6 {
		t.Fatalf("Momentum residual = %g", d)
	}
}

func TestRMSPropConverges(t *testing.T) {
	d := minimize(NewRMSProp(0.05, 0.9, 1e-8), 500, []float64{5, -3}, []float64{1, 2})
	if d > 1e-3 {
		t.Fatalf("RMSProp residual = %g", d)
	}
}

func TestAdamConverges(t *testing.T) {
	d := minimize(NewAdamDefault(), 2000, []float64{5, -3}, []float64{1, 2})
	if d > 1e-4 {
		t.Fatalf("Adam residual = %g", d)
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step is ≈ lr·sign(g).
	o := NewAdam(0.01, 0.9, 0.999, 1e-8)
	m := newQuadModel([]float64{0})
	nn.ZeroGrads(m)
	m.Backward(tensor.FromSlice([]float64{3.7}, 1)) // arbitrary positive gradient
	o.Step(m)
	got := m.p.Value.At(0)
	if math.Abs(got+0.01) > 1e-6 {
		t.Fatalf("first Adam step = %g, want ≈ -0.01", got)
	}
}

func TestAdamBeatsSGDOnIllConditioned(t *testing.T) {
	// Loss ½(100·w0² + 0.01·w1²): badly scaled coordinates, the
	// motivation the paper gives for momentum/ADAM.
	run := func(o Optimizer, steps int) float64 {
		m := newQuadModel([]float64{1, 1})
		for s := 0; s < steps; s++ {
			nn.ZeroGrads(m)
			w := m.p.Value
			g := tensor.FromSlice([]float64{100 * w.At(0), 0.01 * w.At(1)}, 2)
			m.Backward(g)
			o.Step(m)
		}
		w := m.p.Value
		return 0.5 * (100*w.At(0)*w.At(0) + 0.01*w.At(1)*w.At(1))
	}
	// SGD's stable lr is limited by the large eigenvalue.
	sgd := run(NewSGD(0.009), 300)
	adam := run(NewAdam(0.05, 0.9, 0.999, 1e-8), 300)
	if adam >= sgd {
		t.Fatalf("Adam (%g) should beat lr-limited SGD (%g) on ill-conditioned quadratic", adam, sgd)
	}
}

func TestSetLR(t *testing.T) {
	for _, o := range []Optimizer{NewSGD(0.1), NewMomentum(0.1, 0.9), NewRMSProp(0.1, 0.9, 1e-8), NewAdamDefault()} {
		o.SetLR(0.5)
		if o.LR() != 0.5 {
			t.Errorf("%s: SetLR failed", o.Name())
		}
		if o.Name() == "" {
			t.Errorf("empty optimizer name")
		}
	}
}

func TestOptimizerValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSGD(0) },
		func() { NewSGD(-1) },
		func() { NewSGD(math.NaN()) },
		func() { NewMomentum(0.1, 1.0) },
		func() { NewRMSProp(0.1, 0, 1e-8) },
		func() { NewAdam(0.1, 1.0, 0.999, 1e-8) },
		func() { NewAdam(0.1, 0.9, -0.1, 1e-8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic from invalid config")
				}
			}()
			f()
		}()
	}
}

// TestTrainingLoopEndToEnd exercises optimizer + loss + a real conv
// layer together: a 1-layer CNN must learn the identity map.
func TestTrainingLoopEndToEnd(t *testing.T) {
	g := tensor.NewRNG(42)
	model := nn.NewSequential(nn.NewConv2D("c", g, 1, 1, 3, 1))
	o := NewAdam(0.02, 0.9, 0.999, 1e-8)
	ls := loss.MSE{}
	x := tensor.Normal(g, 0, 1, 4, 1, 6, 6)
	var final float64
	for epoch := 0; epoch < 300; epoch++ {
		nn.ZeroGrads(model)
		y := model.Forward(x)
		l, dy := ls.Eval(y, x) // target: identity
		model.Backward(dy)
		o.Step(model)
		final = l
	}
	if final > 1e-3 {
		t.Fatalf("CNN failed to learn identity: loss %g", final)
	}
}

func TestSchedules(t *testing.T) {
	cos := Cosine{Base: 1, Floor: 0.1, Total: 11}
	if math.Abs(cos.LRAt(0)-1) > 1e-12 {
		t.Fatalf("Cosine start = %g", cos.LRAt(0))
	}
	if math.Abs(cos.LRAt(10)-0.1) > 1e-12 {
		t.Fatalf("Cosine end = %g", cos.LRAt(10))
	}
	if cos.LRAt(100) != 0.1 {
		t.Fatalf("Cosine beyond total = %g", cos.LRAt(100))
	}
	mid := cos.LRAt(5)
	if mid <= 0.1 || mid >= 1 {
		t.Fatalf("Cosine mid = %g", mid)
	}
	if cos.Name() == "" {
		t.Fatalf("empty schedule name")
	}
}

// Property-like check: schedules never return negative rates.
func TestSchedulesNonNegative(t *testing.T) {
	scheds := []Schedule{
		Cosine{Base: 0.1, Floor: 0, Total: 50},
		Cosine{Base: 0.1, Floor: 0.001, Total: 1},
	}
	for _, s := range scheds {
		for e := 0; e < 200; e++ {
			if s.LRAt(e) < 0 {
				t.Fatalf("%s: negative LR at epoch %d", s.Name(), e)
			}
		}
	}
}
