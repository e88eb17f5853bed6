package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad computes dLoss/dv for a single scalar v inside buf
// via central finite differences, where loss() re-runs the forward
// pass end to end.
func numericalGrad(buf []float64, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := buf[i]
	buf[i] = orig + h
	lp := loss()
	buf[i] = orig - h
	lm := loss()
	buf[i] = orig
	return (lp - lm) / (2 * h)
}

// checkLayerGradients verifies a layer's Backward against finite
// differences of a quadratic loss L = ½ Σ y², whose output gradient is
// simply y. It checks the input gradient and every parameter gradient.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	loss := func() float64 {
		y := layer.Forward(x)
		s := 0.0
		for _, v := range y.Data() {
			s += 0.5 * v * v
		}
		// Discard caches from probe runs so the layer stays reusable.
		layer.Backward(y)
		ZeroGrads(layer)
		return s
	}

	// Analytic pass.
	y := layer.Forward(x)
	ZeroGrads(layer)
	dx := layer.Backward(y.Clone())

	// Input gradient.
	xd := x.Data()
	for _, i := range probeIndices(len(xd)) {
		want := numericalGrad(xd, i, loss)
		got := dx.Data()[i]
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("%s: d/dx[%d] = %g, finite diff %g", layer.Name(), i, got, want)
		}
	}

	// Parameter gradients: recompute the analytic pass and snapshot
	// every parameter's gradient BEFORE probing — the loss() probes
	// call ZeroGrads and would clobber gradients of later parameters.
	y = layer.Forward(x)
	ZeroGrads(layer)
	layer.Backward(y.Clone())
	analytic := make([][]float64, len(layer.Params()))
	for pi, p := range layer.Params() {
		analytic[pi] = append([]float64(nil), p.Grad.Data()...)
	}
	for pi, p := range layer.Params() {
		pd := p.Value.Data()
		for _, i := range probeIndices(len(pd)) {
			want := numericalGrad(pd, i, loss)
			got := analytic[pi][i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s: d/d%s[%d] = %g, finite diff %g", layer.Name(), p.Name, i, got, want)
			}
		}
	}
}

// probeIndices picks a deterministic subset of indices so gradient
// checks stay fast on larger tensors.
func probeIndices(n int) []int {
	if n <= 24 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, 0, 24)
	step := n / 24
	for i := 0; i < n; i += step {
		idx = append(idx, i)
	}
	return idx
}

func TestConv2DGradientsValid(t *testing.T) {
	g := tensor.NewRNG(1)
	layer := NewConv2D("conv", g, 2, 3, 3, 0)
	x := tensor.Normal(g, 0, 1, 2, 2, 6, 5)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestConv2DGradientsSamePadding(t *testing.T) {
	g := tensor.NewRNG(2)
	layer := NewConv2D("conv", g, 3, 2, 5, SamePad(5))
	x := tensor.Normal(g, 0, 1, 1, 3, 7, 7)
	checkLayerGradients(t, layer, x, 1e-5)
}

// The tests above finite-difference-check the GEMM engine; the
// Reference variants below keep the naive reference loops the engine is
// crosschecked against (reference_test.go) under the same scrutiny.

func TestConv2DGradientsValidReference(t *testing.T) {
	g := tensor.NewRNG(1)
	layer := NewConv2D("conv", g, 2, 3, 3, 0)
	x := tensor.Normal(g, 0, 1, 2, 2, 6, 5)
	checkLayerGradients(t, asReference(layer), x, 1e-5)
}

func TestConv2DGradientsSamePaddingReference(t *testing.T) {
	g := tensor.NewRNG(2)
	layer := NewConv2D("conv", g, 3, 2, 5, SamePad(5))
	x := tensor.Normal(g, 0, 1, 1, 3, 7, 7)
	checkLayerGradients(t, asReference(layer), x, 1e-5)
}

func TestConvTranspose2DGradients(t *testing.T) {
	g := tensor.NewRNG(3)
	layer := NewConvTranspose2D("deconv", g, 2, 3, 3)
	x := tensor.Normal(g, 0, 1, 2, 2, 4, 5)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestConvTranspose2DGradientsReference(t *testing.T) {
	g := tensor.NewRNG(3)
	layer := NewConvTranspose2D("deconv", g, 2, 3, 3)
	x := tensor.Normal(g, 0, 1, 2, 2, 4, 5)
	checkLayerGradients(t, asReference(layer), x, 1e-5)
}

func TestLeakyReLUGradients(t *testing.T) {
	g := tensor.NewRNG(4)
	layer := NewLeakyReLU("lrelu", 0.01)
	// Keep probes away from the kink at 0.
	x := tensor.Normal(g, 0, 1, 2, 3, 4, 4)
	for i, v := range x.Data() {
		if math.Abs(v) < 0.05 {
			x.Data()[i] = v + 0.1
		}
	}
	checkLayerGradients(t, layer, x, 1e-6)

	// At the kink the mask is the sign bit of the input: slope 1 at +0
	// and ε at −0, and ε for a negative input whose product with ε
	// underflows to −0, or whatever ε is, 0 included. Backward reads the
	// sign off the output, which must give the same rows.
	negTiny := -math.SmallestNonzeroFloat64
	for _, row := range []struct{ eps, x, want float64 }{
		{0.01, 0, 1},
		{0.01, math.Copysign(0, -1), 0.01},
		{0.01, negTiny, 0.01},
		{0, -2, 0},
		{0, math.Copysign(0, -1), 0},
		{0, 0, 1},
		{0, 2, 1},
	} {
		l := NewLeakyReLU("kink", row.eps)
		l.Forward(tensor.FromSlice([]float64{row.x}, 1))
		if got := l.Backward(tensor.FromSlice([]float64{1}, 1)).Data()[0]; got != row.want {
			t.Errorf("ε=%g x=%g: dx = %g, want %g", row.eps, row.x, got, row.want)
		}
	}
}

// TestLeakyReLUBackwardShapeMismatch is the regression for a stale
// mask: after a batch-8 forward and then a batch-3 one, a batch-8
// gradient must be refused, naming the layer, not answered with signs
// the older forward left behind.
func TestLeakyReLUBackwardShapeMismatch(t *testing.T) {
	g := tensor.NewRNG(4)
	l := NewLeakyReLU("lrelu", 0.01)
	l.Forward(tensor.Normal(g, 0, 1, 8, 2, 3, 3))
	l.Forward(tensor.Normal(g, 0, 1, 3, 2, 3, 3))
	mustPanicWith(t, "batch-8 gradient after a batch-3 forward", "LeakyReLU lrelu backward shape mismatch", func() {
		l.Backward(tensor.Normal(g, 0, 1, 8, 2, 3, 3))
	})
}

func TestReLUGradients(t *testing.T) {
	g := tensor.NewRNG(5)
	layer := NewReLU("relu")
	x := tensor.Normal(g, 0, 1, 2, 2, 3, 3)
	for i, v := range x.Data() {
		if math.Abs(v) < 0.05 {
			x.Data()[i] = v + 0.1
		}
	}
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestTanhGradients(t *testing.T) {
	g := tensor.NewRNG(6)
	layer := NewTanh("tanh")
	x := tensor.Normal(g, 0, 1, 2, 8)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestSigmoidGradients(t *testing.T) {
	g := tensor.NewRNG(7)
	layer := NewSigmoid("sigmoid")
	x := tensor.Normal(g, 0, 1, 2, 8)
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestDenseGradients(t *testing.T) {
	g := tensor.NewRNG(8)
	layer := NewDense("fc", g, 6, 4)
	x := tensor.Normal(g, 0, 1, 3, 6)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestSequentialGradients(t *testing.T) {
	g := tensor.NewRNG(9)
	model := NewSequential(
		NewConv2D("c1", g, 2, 3, 3, SamePad(3)),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 3, 2, 3, SamePad(3)),
	)
	x := tensor.Normal(g, 0, 1, 1, 2, 6, 6)
	checkLayerGradients(t, model, x, 1e-5)
}

func TestPaperArchitectureGradients(t *testing.T) {
	// The full Table-I network: 4→6→16→6→4 channels, 5×5 kernels,
	// same padding, leaky ReLU between layers.
	g := tensor.NewRNG(10)
	model := NewSequential(
		NewConv2D("c1", g, 4, 6, 5, 2),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 6, 16, 5, 2),
		NewLeakyReLU("a2", 0.01),
		NewConv2D("c3", g, 16, 6, 5, 2),
		NewLeakyReLU("a3", 0.01),
		NewConv2D("c4", g, 6, 4, 5, 2),
	)
	x := tensor.Normal(g, 0, 0.5, 1, 4, 8, 8)
	checkLayerGradients(t, model, x, 2e-5)
}
