package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// These tests pin the identity both gather-form sweeps rest on
// (DESIGN.md §3): the adjoint of a stride-1 convolution is a stride-1
// convolution over the flipped, channel-transposed kernel. Conv2D uses
// it for its input gradient, ConvTranspose2D for its forward.

// adjointGeometry is one (K, Pad, H, W) cell of the table.
type adjointGeometry struct{ k, pad, h, w int }

// adjointGeometries spans K ∈ {1,3,5} × Pad ∈ {0, same, K-1} (the full
// padding is where the dX lowering runs with pad 0) over non-square
// frames, including the degenerate ones where an edge equals the kernel.
func adjointGeometries() []adjointGeometry {
	var gs []adjointGeometry
	for _, k := range []int{1, 3, 5} {
		pads := []int{0, (k - 1) / 2, k - 1}
		if k == 1 {
			pads = pads[:1]
		}
		for _, pad := range pads {
			for _, hw := range [][2]int{{k, k + 3}, {k + 2, k}, {9, 6}} {
				gs = append(gs, adjointGeometry{k, pad, hw[0], hw[1]})
			}
		}
	}
	return gs
}

var adjointChannels = [][2]int{{4, 6}, {6, 16}, {16, 6}, {6, 4}, {1, 1}, {3, 3}}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// perImage returns image i of a batch as a batch-of-1 tensor.
func perImage(b *tensor.Tensor, i int) *tensor.Tensor {
	return tensor.FromSlice(append([]float64(nil), imageBits(b, i)...), append([]int{1}, b.Shape()[1:]...)...)
}

// TestConv2DBackwardIsAdjoint checks, cell by cell, that Backward's dX
// is the adjoint of Forward (⟨Forward(x), dy⟩ = ⟨x, dX⟩; the bias is
// zero at construction, so Forward is linear), that it matches the
// nested-loop oracle, and that a batch's dX equals the per-image dX bit
// for bit.
func TestConv2DBackwardIsAdjoint(t *testing.T) {
	for _, ch := range adjointChannels {
		for _, ag := range adjointGeometries() {
			for _, n := range []int{1, 3} {
				name := fmt.Sprintf("%dto%d/k%d_pad%d_%dx%d/n%d", ch[0], ch[1], ag.k, ag.pad, ag.h, ag.w, n)
				t.Run(name, func(t *testing.T) {
					g := tensor.NewRNG(int64(1000*ag.k + 100*ag.pad + 10*ch[0] + n))
					conv := NewConv2D("c", g, ch[0], ch[1], ag.k, ag.pad)
					ref := &refConv2D{Conv2D: conv}
					x := tensor.Normal(g, 0, 1, n, ch[0], ag.h, ag.w)
					y := conv.Forward(x)
					dy := tensor.Normal(g, 0, 1, y.Shape()...)
					dx := conv.Backward(dy)

					lhs, rhs := dot(y.Data(), dy.Data()), dot(x.Data(), dx.Data())
					if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(lhs)) {
						t.Fatalf("⟨Forward(x), dy⟩ = %.17g, ⟨x, Backward(dy)⟩ = %.17g", lhs, rhs)
					}
					ref.Forward(x)
					closeTensors(t, "dx vs oracle", dx, ref.Backward(dy), 1e-12)

					for i := 0; i < n; i++ {
						conv.Forward(perImage(x, i))
						dxi := conv.Backward(perImage(dy, i))
						assertSameBits(t, fmt.Sprintf("dx image %d", i), dxi.Data(), imageBits(dx, i))
					}
				})
			}
		}
	}
}

// TestConv2DPadBeyondKernelRejected: with Pad > K-1 the dX sweep would
// need a negative pad. The constructor refuses such a layer, and one
// forced into that state through the exported field — before Forward,
// or between Forward and Backward — panics in the engine's geometry
// check, naming the layer, instead of reading out of bounds or
// returning a wrong gradient.
func TestConv2DPadBeyondKernelRejected(t *testing.T) {
	g := tensor.NewRNG(5)
	mustPanicWith(t, "NewConv2D pad 3 k 3", "exceeds kernel-1", func() { NewConv2D("c", g, 2, 2, 3, 3) })
	mustPanicWith(t, "NewConv2D pad 1 k 1", "exceeds kernel-1", func() { NewConv2D("c", g, 2, 2, 1, 1) })

	conv := NewConv2D("c", g, 2, 3, 3, 2)
	x := tensor.Normal(g, 0, 1, 1, 2, 5, 5)
	y := conv.Forward(x)
	conv.Pad = 3
	mustPanicWith(t, "Backward with Pad > K-1", "layer c: convolution pad 3 outside [0, kernel-1 = 2]", func() { conv.Backward(y) })
	mustPanicWith(t, "Forward with Pad > K-1", "layer c: convolution pad 3 outside [0, kernel-1 = 2]", func() { conv.Backward(conv.Forward(x)) })
	conv.Pad = -1
	mustPanicWith(t, "Forward with Pad < 0", "layer c: convolution pad -1 outside [0, kernel-1 = 2]", func() { conv.Forward(x) })
}

// TestConvTranspose2DForwardIsFlippedConv runs the other direction of
// the identity over the same channel table: the gather-form forward
// matches the scatter-form oracle, and a batch equals its images bit
// for bit.
func TestConvTranspose2DForwardIsFlippedConv(t *testing.T) {
	for _, ch := range adjointChannels {
		for _, k := range []int{1, 3, 5} {
			for _, n := range []int{1, 3} {
				t.Run(fmt.Sprintf("%dto%d/k%d/n%d", ch[0], ch[1], k, n), func(t *testing.T) {
					g := tensor.NewRNG(int64(100*k + 10*ch[0] + n))
					ct := NewConvTranspose2D("ct", g, ch[0], ch[1], k)
					copy(ct.bias.Value.Data(), tensor.Normal(g, 0, 1, ch[1]).Data())
					x := tensor.Normal(g, 0, 1, n, ch[0], 4, 7)
					y := ct.Forward(x)
					closeTensors(t, "forward vs oracle", y, (&refConvTranspose2D{ConvTranspose2D: ct}).Forward(x), 1e-12)
					for i := 0; i < n; i++ {
						yi := ct.Forward(perImage(x, i))
						assertSameBits(t, fmt.Sprintf("y image %d", i), yi.Data(), imageBits(y, i))
					}
				})
			}
		}
	}
}
