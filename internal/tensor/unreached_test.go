package tensor

import (
	"fmt"
	"math"
)

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because tests
// in this package are about it: the rank-2 matrix product, the channel
// splitter, Unstack, the element-wise Apply pair, Norm2 and Dot. Delete
// each together with the tests CHANGES.md (PR 24) lists for it.

// Apply returns a new tensor with f applied to every element.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	r := t.Clone()
	for i, v := range r.data {
		r.data[i] = f(v)
	}
	return r
}

// ApplyInPlace applies f to every element in place and returns t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Norm2 returns the Euclidean (Frobenius) norm of t.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	s := 0.0
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

// Unstack splits a rank-4 NCHW tensor into its rank-3 CHW samples
// (copies).
func Unstack(t *Tensor) []*Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Unstack needs rank-4 NCHW tensor, got %v", t.shape))
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	stride := c * h * w
	out := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		s := New(c, h, w)
		copy(s.data, t.data[i*stride:(i+1)*stride])
		out[i] = s
	}
	return out
}

// MatMul computes the matrix product of two rank-2 tensors through the
// blocked GEMM kernel in gemm.go.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 tensors, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return MatMulInto(New(m, n), a, b, 1)
}

// SplitChannels is the inverse of ConcatChannels: it cuts an NCHW
// tensor into pieces with the given channel counts.
func SplitChannels(t *Tensor, counts ...int) []*Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: SplitChannels needs rank-4 NCHW tensor, got %v", t.shape))
	}
	sum := 0
	for _, c := range counts {
		if c <= 0 {
			panic("tensor: SplitChannels non-positive channel count")
		}
		sum += c
	}
	if sum != t.shape[1] {
		panic(fmt.Sprintf("tensor: SplitChannels counts %v do not sum to %d channels", counts, t.shape[1]))
	}
	n, h, w := t.shape[0], t.shape[2], t.shape[3]
	hw := h * w
	out := make([]*Tensor, len(counts))
	off := 0
	for i, c := range counts {
		piece := New(n, c, h, w)
		for in := 0; in < n; in++ {
			src := t.data[(in*t.shape[1]+off)*hw : (in*t.shape[1]+off+c)*hw]
			copy(piece.data[in*c*hw:(in+1)*c*hw], src)
		}
		out[i] = piece
		off += c
	}
	return out
}

// MatMulInto computes dst = a·b for rank-2 tensors, reusing dst's
// backing storage (dst must be [a.rows × b.cols]). It returns dst.
// workers > 1 enables the kernels' task parallelism.
func MatMulInto(dst, a, b *Tensor, workers int) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto needs rank-2 tensors, got %v, %v → %v", a.shape, b.shape, dst.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	GemmNN(m, n, k, a.data, b.data, dst.data, false, workers)
	return dst
}
