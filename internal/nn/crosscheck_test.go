package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// TestConvGradCrossCheckAutodiff rebuilds a small convolution +
// leaky-ReLU network scalar by scalar on an autodiff tape and checks
// that the tape's gradients match the hand-derived batched backward
// pass exactly (up to float noise). This is an independent oracle —
// unlike finite differences it has no step-size error.
func TestConvGradCrossCheckAutodiff(t *testing.T) {
	const (
		cin, cout = 2, 3
		k         = 3
		h, w      = 5, 6
		eps       = 0.01
	)
	g := tensor.NewRNG(17)
	conv := NewConv2D("c", g, cin, cout, k, 0)
	act := NewLeakyReLU("a", eps)
	x := tensor.Normal(g, 0, 1, 1, cin, h, w)

	// Hand-derived pass with quadratic loss L = ½Σy².
	y := act.Forward(conv.Forward(x))
	ZeroGrads(conv)
	dx := conv.Backward(act.Backward(y.Clone()))

	// Autodiff replica.
	tp := autodiff.NewTape()
	xv := make([]autodiff.Var, x.Size())
	for i, v := range x.Data() {
		xv[i] = tp.Value(v)
	}
	wt := conv.weight.Value
	wv := make([]autodiff.Var, wt.Size())
	for i, v := range wt.Data() {
		wv[i] = tp.Value(v)
	}
	bv := make([]autodiff.Var, cout)
	for i, v := range conv.bias.Value.Data() {
		bv[i] = tp.Value(v)
	}
	oh, ow := h-k+1, w-k+1
	var lossTerms []autodiff.Var
	for co := 0; co < cout; co++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bv[co]
				for ci := 0; ci < cin; ci++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							xi := (ci*h+(oy+ky))*w + (ox + kx)
							wi := ((co*cin+ci)*k+ky)*k + kx
							acc = acc.Add(xv[xi].Mul(wv[wi]))
						}
					}
				}
				out := acc.LeakyReLU(eps)
				lossTerms = append(lossTerms, out.Square().MulConst(0.5))
			}
		}
	}
	loss := autodiff.Sum(lossTerms)
	grads := tp.Gradients(loss)

	// Compare input gradients.
	for i := range xv {
		want := grads[xv[i].Index()]
		got := dx.Data()[i]
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("dx[%d] = %g, autodiff %g", i, got, want)
		}
	}
	// Compare weight gradients.
	for i := range wv {
		want := grads[wv[i].Index()]
		got := conv.weight.Grad.Data()[i]
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("dW[%d] = %g, autodiff %g", i, got, want)
		}
	}
	// Compare bias gradients.
	for i := range bv {
		want := grads[bv[i].Index()]
		got := conv.bias.Grad.Data()[i]
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("dB[%d] = %g, autodiff %g", i, got, want)
		}
	}
}

// CopyParams copies parameter values from src into dst, so the engine
// and the reference loops (or two worker counts) start from the same
// weights; the models must have identical architectures.
func CopyParams(dst, src Layer) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: CopyParams parameter count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if !dp[i].Value.SameShape(sp[i].Value) {
			return fmt.Errorf("nn: CopyParams parameter %d shape mismatch %v vs %v", i, dp[i].Value.Shape(), sp[i].Value.Shape())
		}
		dp[i].Value.CopyFrom(sp[i].Value)
	}
	invalidatePacks(dst)
	return nil
}

// closeTensors fails unless got and want agree elementwise to the
// scaled tolerance tol·(1+|want|).
func closeTensors(t *testing.T, what string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", what, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if math.Abs(gd[i]-wd[i]) > tol*(1+math.Abs(wd[i])) {
			t.Fatalf("%s: [%d] = %g, want %g (Δ %g)", what, i, gd[i], wd[i], gd[i]-wd[i])
		}
	}
}

// TestConvFastSlowCrosscheck is the correctness contract of the GEMM
// engine: for every padding regime and worker count, the engine must
// match the naive reference loops (reference_test.go) to ~1e-12 on the
// forward output and on every gradient (dx, dW, dB). The two
// accumulate in different orders (and the engine may use FMA), so
// agreement is to float round-off, not bit-exact.
func TestConvFastSlowCrosscheck(t *testing.T) {
	cases := []struct {
		name              string
		cin, cout, k, pad int
		h, w              int
		workers           int
	}{
		{"valid_pad0", 2, 3, 3, 0, 7, 6, 1},
		{"valid_pad0_workers", 3, 4, 5, 0, 9, 8, 4},
		{"same_pad_k5", 4, 6, 5, 2, 12, 12, 1},
		{"same_pad_k5_workers", 4, 6, 5, 2, 12, 12, 3},
		{"pad1_k3", 2, 2, 3, 1, 6, 9, 1},
		{"table1_layer2", 6, 16, 5, 2, 16, 16, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tensor.NewRNG(31)
			fast := NewConv2D("fast", g, tc.cin, tc.cout, tc.k, tc.pad)
			slow := &refConv2D{Conv2D: NewConv2D("slow", tensor.NewRNG(32), tc.cin, tc.cout, tc.k, tc.pad)}
			if err := CopyParams(slow, fast); err != nil {
				t.Fatal(err)
			}
			fast.Workers = tc.workers
			slow.Workers = tc.workers
			x := tensor.Normal(g, 0, 1, 2, tc.cin, tc.h, tc.w)

			yf := fast.Forward(x)
			ZeroGrads(fast)
			dxf := fast.Backward(yf.Clone())
			ys := slow.Forward(x)
			ZeroGrads(slow)
			dxs := slow.Backward(ys.Clone())

			closeTensors(t, "forward", yf, ys, 1e-12)
			closeTensors(t, "dx", dxf, dxs, 1e-12)
			closeTensors(t, "dW", fast.weight.Grad, slow.weight.Grad, 1e-11)
			closeTensors(t, "dB", fast.bias.Grad, slow.bias.Grad, 1e-11)
		})
	}
}

// TestConvTransposeFastSlowCrosscheck is the same contract for the
// transpose convolution.
func TestConvTransposeFastSlowCrosscheck(t *testing.T) {
	for _, workers := range []int{1, 3} {
		g := tensor.NewRNG(41)
		fast := NewConvTranspose2D("fast", g, 3, 2, 5)
		slow := &refConvTranspose2D{ConvTranspose2D: NewConvTranspose2D("slow", tensor.NewRNG(42), 3, 2, 5)}
		if err := CopyParams(slow, fast); err != nil {
			t.Fatal(err)
		}
		fast.Workers = workers
		x := tensor.Normal(g, 0, 1, 2, 3, 6, 7)

		yf := fast.Forward(x)
		ZeroGrads(fast)
		dxf := fast.Backward(yf.Clone())
		ys := slow.Forward(x)
		ZeroGrads(slow)
		dxs := slow.Backward(ys.Clone())

		closeTensors(t, "forward", yf, ys, 1e-12)
		closeTensors(t, "dx", dxf, dxs, 1e-12)
		for i := range fast.Params() {
			closeTensors(t, fast.Params()[i].Name, fast.Params()[i].Grad, slow.Params()[i].Grad, 1e-11)
		}
	}
}

// TestConvFastSlowCrosscheckFullNetwork runs the whole Table-I stack
// (convolutions + leaky ReLUs) through the engine and through the
// reference loops and compares the forward output and every parameter
// gradient.
func TestConvFastSlowCrosscheckFullNetwork(t *testing.T) {
	build := func(seed int64) *Sequential {
		g := tensor.NewRNG(seed)
		return NewSequential(
			NewConv2D("c1", g, 4, 6, 5, 2),
			NewLeakyReLU("a1", 0.01),
			NewConv2D("c2", g, 6, 16, 5, 2),
			NewLeakyReLU("a2", 0.01),
			NewConv2D("c3", g, 16, 6, 5, 2),
			NewLeakyReLU("a3", 0.01),
			NewConv2D("c4", g, 6, 4, 5, 2),
		)
	}
	fast, slow := build(7), asReference(build(8))
	if err := CopyParams(slow, fast); err != nil {
		t.Fatal(err)
	}
	fast.SetScratch(NewArena()) // shared-arena configuration, as in training
	x := tensor.Normal(tensor.NewRNG(9), 0, 1, 1, 4, 16, 16)

	yf := fast.Forward(x)
	ZeroGrads(fast)
	dxf := fast.Backward(yf.Clone())
	ys := slow.Forward(x)
	ZeroGrads(slow)
	dxs := slow.Backward(ys.Clone())

	closeTensors(t, "forward", yf, ys, 1e-12)
	closeTensors(t, "dx", dxf, dxs, 1e-11)
	fp, sp := fast.Params(), slow.Params()
	for i := range fp {
		closeTensors(t, fp[i].Name, fp[i].Grad, sp[i].Grad, 1e-10)
	}
}

// TestDenseGradCrossCheckAutodiff does the same oracle comparison for
// the dense layer.
func TestDenseGradCrossCheckAutodiff(t *testing.T) {
	const in, out, batch = 4, 3, 2
	g := tensor.NewRNG(21)
	fc := NewDense("fc", g, in, out)
	x := tensor.Normal(g, 0, 1, batch, in)

	y := fc.Forward(x)
	ZeroGrads(fc)
	dx := fc.Backward(y.Clone())

	tp := autodiff.NewTape()
	xv := make([]autodiff.Var, x.Size())
	for i, v := range x.Data() {
		xv[i] = tp.Value(v)
	}
	wv := make([]autodiff.Var, fc.weight.Value.Size())
	for i, v := range fc.weight.Value.Data() {
		wv[i] = tp.Value(v)
	}
	bv := make([]autodiff.Var, out)
	for i, v := range fc.bias.Value.Data() {
		bv[i] = tp.Value(v)
	}
	var terms []autodiff.Var
	for n := 0; n < batch; n++ {
		for j := 0; j < out; j++ {
			acc := bv[j]
			for p := 0; p < in; p++ {
				acc = acc.Add(xv[n*in+p].Mul(wv[p*out+j]))
			}
			terms = append(terms, acc.Square().MulConst(0.5))
		}
	}
	grads := tp.Gradients(autodiff.Sum(terms))
	for i := range xv {
		want := grads[xv[i].Index()]
		if got := dx.Data()[i]; math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("dx[%d] = %g, autodiff %g", i, got, want)
		}
	}
	for i := range wv {
		want := grads[wv[i].Index()]
		if got := fc.weight.Grad.Data()[i]; math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("dW[%d] = %g, autodiff %g", i, got, want)
		}
	}
}
