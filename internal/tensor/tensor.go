// Package tensor implements a dense, row-major, float64 N-dimensional
// tensor. It is the numerical substrate for the neural-network stack in
// this repository: layers, optimizers and losses all operate on *Tensor
// values.
//
// The implementation is deliberately simple and allocation-conscious:
// tensors are always contiguous and row-major, so most operations are
// flat loops over the backing slice. That keeps per-op overhead low and
// makes hand-written backward passes easy to verify.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Tensor is a dense, contiguous, row-major N-dimensional array of
// float64 values. The zero value is not usable; construct tensors with
// New, FromSlice, Zeros, or the random constructors in random.go.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
	// dims backs shape and strides up to rank 4, so a tensor is two
	// allocations: this header and its data.
	dims [8]int
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	return withShape(make([]float64, checkShape(shape)), shape)
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it afterwards unless
// that sharing is intended. It panics if len(data) does not match the
// shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (need %d)", len(data), slices.Clone(shape), n))
	}
	return withShape(data, shape)
}

// withShape returns a tensor over data with a copy of shape.
func withShape(data []float64, shape []int) *Tensor {
	t := &Tensor{data: data}
	r := len(shape)
	buf := t.dims[:]
	if 2*r > len(buf) {
		buf = make([]int, 2*r)
	}
	t.shape = buf[:r:r]
	copy(t.shape, shape)
	t.strides = buf[r : 2*r : 2*r]
	fillStrides(t.strides, shape)
	return t
}

// checkShape returns the volume of shape. Its panics format a copy, so
// a caller's variadic shape never escapes to the heap.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", slices.Clone(shape)))
		}
		n *= d
	}
	return n
}

// fillStrides writes the row-major strides of shape into strides.
func fillStrides(strides, shape []int) {
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
}

// Shape returns a copy of the tensor's dimensions.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Offset converts a multi-dimensional index to a flat offset.
// It panics on rank mismatch or out-of-range indices.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.Offset(idx...)] }

// Set assigns v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal volume;
// the shape of t is preserved.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// volume. It panics if the volumes differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), slices.Clone(shape), n))
	}
	return withShape(t.data, shape)
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// Add returns t + o elementwise as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.mustSameShape(o, "Add")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] += v
	}
	return r
}

// Sub returns t - o elementwise as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.mustSameShape(o, "Sub")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] -= v
	}
	return r
}

// ScaleInPlace multiplies every element by c and returns t.
func (t *Tensor) ScaleInPlace(c float64) *Tensor {
	for i := range t.data {
		t.data[i] *= c
	}
	return t
}

// AddScaled performs t += c*o (axpy) and returns t.
func (t *Tensor) AddScaled(c float64, o *Tensor) *Tensor {
	t.mustSameShape(o, "AddScaled")
	for i, v := range o.data {
		t.data[i] += c * v
	}
	return t
}

// Max returns the maximum element. It panics on empty tensors.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns max |t_i|, or 0 for empty tensors.
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Equal reports exact elementwise equality of shape and data.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of o (absolute tolerance).
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or ±Inf.
//
//repolint:allow reach -- the finite-output invariant of core TestRolloutMultiStepAutoregressive, TestWindowedRolloutMultiStep and TestUnevenBlocksTrainAndRollout, dataset TestGenerateBasics, loss TestMAPEEpsGuard and Example_quickstart
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer with a compact summary.
func (t *Tensor) String() string {
	if len(t.data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%g %g %g ... %g] n=%d", t.shape,
		t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1], len(t.data))
}
