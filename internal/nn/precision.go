package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Precision selects the numeric width of a network's compute path
// (DESIGN.md §13). F64 is the default everywhere and carries every
// bit-identity guarantee this repository makes; F32 is an opt-in,
// forward-only fast path for inference: float64 master weights and
// frames at the boundary, float32 kernels in between. The two paths agree to a
// documented error budget (EXPERIMENTS.md), never bit-for-bit.
type Precision int

const (
	// F64 runs every kernel on float64 — the reference path.
	F64 Precision = iota
	// F32 narrows activations once on entry, runs the layer kernels on
	// float32 with prepacked float32 weights, and widens once at the
	// output boundary.
	F32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses the -precision flag values.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("nn: unknown precision %q (want f64 or f32)", s)
}

// act32 is a float32 NCHW activation flowing between forward32 stages:
// a shape header passed by value (no per-call allocation) over a data
// slice that lives in the chain's arena.
type act32 struct {
	n, c, h, w int
	d          []float32
}

// size returns the element count implied by the shape header.
func (x act32) size() int { return x.n * x.c * x.h * x.w }

// layer32 is implemented by layers with a float32 inference path:
// forward32 consumes an arena-backed activation and returns a new one
// allocated from a (never aliasing scratch it also releases). The path
// is forward-only, so a parameterised layer caches nothing and drops
// any float64 input it still holds — a later Backward must not pair
// with this forward. setPrecision32 pins (or unpins) the layer;
// pinning hands it the shared f32 arena and precomputes derived
// weight forms (the packed float32 panels).
type layer32 interface {
	setPrecision32(on bool, a *Arena) error
	forward32(x act32, a *Arena) act32
}

// seqF32 is a Sequential's pinned-precision state: the shared f32
// arena, the layer chain as forward32 stages, and a persistent input
// conversion buffer so the fused path allocates nothing at steady
// state.
type seqF32 struct {
	arena *Arena
	steps []layer32
	in    []float32
}

// SetPrecision pins the network's compute path. F32 requires every
// contained layer to implement the float32 path; the first layer that
// does not is reported by name and the network is left unchanged. F64 unpins all layers. Pinning is a per-instance
// property, like SetWorkers: clones made before a pin do not see it,
// and CloneShared propagates the current pin to new clones. A pinned
// network is forward-only: Backward panics until SetPrecision(F64).
func (s *Sequential) SetPrecision(p Precision) error {
	switch p {
	case F64:
		for _, l := range s.layers {
			if u, ok := l.(layer32); ok {
				if err := u.setPrecision32(false, nil); err != nil {
					return err
				}
			}
		}
		s.f32 = nil
		return nil
	case F32:
		steps := make([]layer32, len(s.layers))
		for i, l := range s.layers {
			u, ok := l.(layer32)
			if !ok {
				return fmt.Errorf("nn: layer %d (%s) has no float32 path", i, l.Name())
			}
			steps[i] = u
		}
		a := NewArena()
		for i, u := range steps {
			if err := u.setPrecision32(true, a); err != nil {
				return fmt.Errorf("nn: layer %d (%s): %w", i, s.layers[i].Name(), err)
			}
		}
		s.f32 = &seqF32{arena: a, steps: steps}
		return nil
	}
	return fmt.Errorf("nn: unknown precision %v", p)
}

// Precision reports the network's pinned compute path.
func (s *Sequential) Precision() Precision {
	if s.f32 != nil {
		return F32
	}
	return F64
}

// actOf builds the shape header for a boundary tensor over the given
// float32 data.
func actOf(x *tensor.Tensor, d []float32) act32 {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: f32 path needs rank-4 input, got shape %v", x.Shape()))
	}
	return act32{n: x.Dim(0), c: x.Dim(1), h: x.Dim(2), w: x.Dim(3), d: d}
}

// newFromAct allocates the float64 boundary tensor for an activation's
// shape.
func newFromAct(x act32) *tensor.Tensor { return tensor.New(x.n, x.c, x.h, x.w) }

// forwardVia32 is the per-layer pinned path: narrow the input into
// arena scratch, run the layer's float32 kernel, widen the result into
// a fresh float64 tensor. Because widening is exact and narrowing a
// widened float32 is the identity, a chain of per-layer calls is
// bit-identical to the fused chain below.
func forwardVia32(l layer32, a *Arena, x *tensor.Tensor) *tensor.Tensor {
	mark := a.Mark()
	defer a.Release(mark)
	in := a.Alloc32(x.Size())
	tensor.Narrow32(in, x.Data())
	out := l.forward32(actOf(x, in), a)
	y := newFromAct(out)
	tensor.Widen64(y.Data(), out.d)
	return y
}

// forwardChain32 narrows the input once, runs every stage on float32,
// and returns the final activation (allocated in the chain arena; the
// caller widens and releases). The persistent `in` buffer makes the
// narrow step allocation-free at steady state.
func (s *Sequential) forwardChain32(x *tensor.Tensor) act32 {
	f := s.f32
	n := x.Size()
	if cap(f.in) < n {
		f.in = make([]float32, n)
	}
	in := f.in[:n]
	tensor.Narrow32(in, x.Data())
	cur := actOf(x, in)
	for _, l := range f.steps {
		cur = l.forward32(cur, f.arena)
	}
	return cur
}

// ForwardInto runs Forward writing the result into dst, which must
// already have the network's output shape for this input. On the F32
// fused path this is the zero-allocation steady state: input narrowed
// into a persistent buffer, every intermediate in the reused arena,
// output widened straight into dst. On the F64 path it falls back to
// Forward plus a copy. It returns dst.
func (s *Sequential) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	if s.f32 == nil {
		dst.CopyFrom(s.Forward(x))
		return dst
	}
	mark := s.f32.arena.Mark()
	out := s.forwardChain32(x)
	if dst.Size() != out.size() {
		panic(fmt.Sprintf("nn: ForwardInto dst size %d, output needs %d", dst.Size(), out.size()))
	}
	tensor.Widen64(dst.Data(), out.d)
	s.f32.arena.Release(mark)
	return dst
}
