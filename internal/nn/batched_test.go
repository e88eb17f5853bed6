package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// These tests pin the contract the serving stack's micro-batching is
// built on (DESIGN.md §9): pushing a batch of N images through any
// layer produces, image for image, exactly the same bits as N
// batch-of-1 calls. For the convolution layers this holds because tile
// geometry is strictly per-image (tiles never span image boundaries),
// so every output element sees the same panel position — and therefore
// the same SIMD body/tail rounding — in both cases.

// stackImages builds an [N, ...] batch from equal-shaped [1, ...]
// batch-of-1 inputs.
func stackImages(t *testing.T, xs []*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	first := xs[0]
	per := first.Size()
	shape := append([]int{len(xs)}, first.Shape()[1:]...)
	out := tensor.New(shape...)
	for i, x := range xs {
		if !x.SameShape(first) {
			t.Fatalf("stackImages shape mismatch %v vs %v", x.Shape(), first.Shape())
		}
		copy(out.Data()[i*per:(i+1)*per], x.Data())
	}
	return out
}

// imageBits returns image i of a batched output as a flat slice.
func imageBits(y *tensor.Tensor, i int) []float64 {
	per := y.Size() / y.Dim(0)
	return y.Data()[i*per : (i+1)*per]
}

func assertSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, j, got[j], want[j])
		}
	}
}

// batchCase is one layer under test plus its per-image input shape.
type batchCase struct {
	name  string
	layer Layer
	shape []int // per-image shape (without the batch axis)
}

func batchedForwardCases(g *tensor.RNG) []batchCase {
	return []batchCase{
		{"conv_same", NewConv2D("c", g, 3, 5, 3, 1), []int{3, 11, 13}},
		{"conv_valid", NewConv2D("cv", g, 2, 4, 5, 0), []int{2, 12, 10}},
		{"convtranspose", NewConvTranspose2D("ct", g, 3, 2, 3), []int{3, 9, 8}},
		{"lrelu", NewLeakyReLU("lr", 0.01), []int{5, 7, 6}},
		{"relu", NewReLU("r"), []int{5, 7, 6}},
		{"tanh", NewTanh("th"), []int{3, 4, 5}},
		{"sigmoid", NewSigmoid("sg"), []int{3, 4, 5}},
		{"dense", NewDense("d", g, 17, 9), []int{17}},
		{"sequential", NewSequential(
			NewConv2D("s1", g, 2, 6, 3, 1),
			NewLeakyReLU("s2", 0.01),
			NewConv2D("s3", g, 6, 2, 3, 1),
		), []int{2, 10, 12}},
	}
}

// TestBatchedForwardBitIdentical asserts Forward on a batch of B
// images equals B batch-of-1 Forwards bit-for-bit, on the engine and
// on the reference loops, per worker count.
func TestBatchedForwardBitIdentical(t *testing.T) {
	const B = 5
	for _, reference := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("reference=%v/workers=%d", reference, workers), func(t *testing.T) {
				g := tensor.NewRNG(42)
				for _, tc := range batchedForwardCases(g) {
					if reference {
						tc.layer = asReference(tc.layer)
					}
					if s, ok := tc.layer.(interface{ SetWorkers(int) }); ok {
						s.SetWorkers(workers)
					}
					xs := make([]*tensor.Tensor, B)
					for i := range xs {
						shape := append([]int{1}, tc.shape...)
						xs[i] = tensor.Normal(g, 0, 1, shape...)
					}
					batch := stackImages(t, xs)
					// Reshape per-image inputs from [1, ...] to the
					// batched layout row; the batched call sees the
					// same bytes at offset i.
					yb := tc.layer.Forward(batch).Clone()
					for i := range xs {
						yi := tc.layer.Forward(xs[i])
						assertSameBits(t, fmt.Sprintf("%s image %d", tc.name, i), imageBits(yb, i), yi.Data())
					}
				}
			})
		}
	}
}

// TestBatchedBackwardInputGradBitIdentical asserts that the input
// gradient of a batched Backward equals, image for image, the input
// gradients of batch-of-1 Backwards. (Parameter gradients accumulate
// across the batch in image order and are covered to round-off by the
// crosscheck tests; the per-image dx bits are what the batched
// serving path relies on.)
func TestBatchedBackwardInputGradBitIdentical(t *testing.T) {
	const B = 4
	for _, reference := range []bool{false, true} {
		t.Run(fmt.Sprintf("reference=%v", reference), func(t *testing.T) {
			g := tensor.NewRNG(7)
			for _, tc := range batchedForwardCases(g) {
				if reference {
					tc.layer = asReference(tc.layer)
				}
				xs := make([]*tensor.Tensor, B)
				gs := make([]*tensor.Tensor, B)
				for i := range xs {
					shape := append([]int{1}, tc.shape...)
					xs[i] = tensor.Normal(g, 0, 1, shape...)
				}
				batch := stackImages(t, xs)
				yb := tc.layer.Forward(batch)
				gb := tensor.Normal(g, 0, 1, yb.Shape()...)
				perOut := yb.Size() / B
				for i := range gs {
					gs[i] = tensor.FromSlice(append([]float64(nil), gb.Data()[i*perOut:(i+1)*perOut]...),
						append([]int{1}, yb.Shape()[1:]...)...)
				}
				dxb := tc.layer.Backward(gb).Clone()
				ZeroGrads(tc.layer)
				for i := range xs {
					tc.layer.Forward(xs[i])
					dxi := tc.layer.Backward(gs[i])
					ZeroGrads(tc.layer)
					assertSameBits(t, fmt.Sprintf("%s dx image %d", tc.name, i), imageBits(dxb, i), dxi.Data())
				}
			}
		})
	}
}
