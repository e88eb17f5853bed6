package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// act is an activation flowing through the chain (DESIGN.md §3): a
// shape header passed by value, so a stage allocates nothing for it,
// over data in the chain's arena — or, on a layer's own tensor API, in
// the caller's tensor.
type act[T tensor.Float] struct {
	dims [4]int
	rank int
	d    []T
}

// actOf is the header of x's shape over the data d.
func actOf[T tensor.Float](x *tensor.Tensor, d []T) act[T] {
	y := act[T]{rank: x.Rank(), d: d}
	if y.rank > len(y.dims) {
		panic(fmt.Sprintf("nn: activation shape %v has more than %d dimensions", x.Shape(), len(y.dims)))
	}
	for i := range y.rank {
		y.dims[i] = x.Dim(i)
	}
	return y
}

// view is x as a float64 activation over its own data.
func view(x *tensor.Tensor) act[float64] { return actOf(x, x.Data()) }

// shape returns the dimensions as a slice.
func (x *act[T]) shape() []int { return x.dims[:x.rank] }

// String formats the shape, for panic messages.
func (x act[T]) String() string { return fmt.Sprint(x.dims[:x.rank]) }

// nchw returns the NCHW dimensions, panicking with the layer's name on
// any other rank.
func (x act[T]) nchw(layer string) (n, c, h, w int) {
	if x.rank != 4 {
		panic(fmt.Sprintf("nn: layer %s needs NCHW input, got shape %v", layer, x))
	}
	return x.dims[0], x.dims[1], x.dims[2], x.dims[3]
}

// keep records x in *dst for a later Backward when it is a float64
// activation, and clears *dst when it is float32: that path is
// forward-only, so no Backward may pair with an older float64 forward.
func keep[T tensor.Float](dst *act[float64], x act[T]) { *dst, _ = any(x).(act[float64]) }

// load writes the float64 boundary data src into dst at width T.
func load[T tensor.Float](dst []T, src []float64) {
	switch d := any(dst).(type) {
	case []float32:
		tensor.Narrow32(d, src)
	case []float64:
		copy(d, src)
	}
}

// store writes src back to float64; widening float32 is exact.
func store[T tensor.Float](dst []float64, src []T) {
	switch s := any(src).(type) {
	case []float32:
		tensor.Widen64(dst, s)
	case []float64:
		copy(dst, s)
	}
}

// output writes y into dst, or into a fresh tensor when dst is nil,
// and returns it.
func output[T tensor.Float](dst *tensor.Tensor, y act[T]) *tensor.Tensor {
	if dst == nil {
		dst = tensor.New(y.shape()...)
	} else if dst.Size() != len(y.d) {
		panic(fmt.Sprintf("nn: ForwardInto dst size %d, output needs %d", dst.Size(), len(y.d)))
	}
	store(dst.Data(), y.d)
	return dst
}

// forward opens s's bracket and runs its chain on x at width T. It
// releases the bracket a previous forward left open, marks the arena,
// loads x into it and returns the final activation; every activation
// stays in the arena until Backward releases the bracket (or the next
// forward does).
func forward[T tensor.Float](s *Sequential, x *tensor.Tensor) act[T] {
	a := s.arena
	if s.open {
		a.Release(s.mark)
	}
	s.mark, s.open = a.Mark(), true
	in := actOf(x, bumpOf[T](a).alloc(x.Size()))
	load(in.d, x.Data())
	s.widest = len(in.d)
	return chain(s.layers, in, a, &s.widest)
}

// chain runs layers on x in order — one stage per layer kind, the same
// code at both widths — and raises *widest to the longest activation.
// LeakyReLU runs in place: nothing reads its input after it, and its
// Backward needs only its output. A layer of any other kind runs at
// float64 through its own tensor Forward over a view of x, its output
// copied into the arena.
func chain[T tensor.Float](layers []Layer, x act[T], a *Arena, widest *int) act[T] {
	for _, l := range layers {
		switch l := l.(type) {
		case *Sequential:
			x = chain(l.layers, x, a, widest)
		case *Conv2D:
			x = conv2DStage(l, x, a, nil)
		case *ConvTranspose2D:
			x = convTransposeStage(l, x, a, nil)
		case *LeakyReLU:
			x = leakyStage(l, x)
		default:
			x64 := any(x).(act[float64]) // SetPrecision(F32) admits no such layer
			y := l.Forward(tensor.FromSlice(x64.d, x64.shape()...))
			x = actOf(y, bumpOf[T](a).alloc(y.Size()))
			load(x.d, y.Data())
		}
		*widest = max(*widest, len(x.d))
	}
	return x
}

// backChain runs the backward stages of layers in reverse on dy, the
// gradient of the last one's output, and returns the gradient of the
// first one's input. bufs are the two ping-pong gradient buffers: a
// convolution writes dX into the one not holding dy, and LeakyReLU
// works in place. With paramsOnly, a convolution in first position
// stops after its parameter gradients and an empty act is returned.
// Any other layer runs its own tensor Backward over a view of dy.
func backChain(layers []Layer, dy act[float64], bufs [2][]float64, a *Arena, paramsOnly bool) act[float64] {
	for i := len(layers) - 1; i >= 0; i-- {
		first := paramsOnly && i == 0
		spare := bufs[0]
		if len(dy.d) > 0 && &dy.d[0] == &spare[0] {
			spare = bufs[1]
		}
		switch l := layers[i].(type) {
		case *Sequential:
			dy = backChain(l.layers, dy, bufs, a, first)
		case *Conv2D, *ConvTranspose2D:
			c := l.(conv)
			dx := c.backwardParams(dy, a)
			if first {
				return act[float64]{}
			}
			dx.d = spare[:len(dx.d)]
			dy = c.inputGrad(dy, dx, a)
		case *LeakyReLU:
			dy = l.backward(dy)
		default:
			dy = view(l.Backward(tensor.FromSlice(dy.d, dy.shape()...)))
		}
	}
	return dy
}

// backward consumes s's open forward: it runs the backward chain on a
// copy of gradOut in the arena, releases the forward's bracket and
// returns dX in a fresh tensor, unless paramsOnly.
func (s *Sequential) backward(gradOut *tensor.Tensor, paramsOnly bool) *tensor.Tensor {
	if s.prec == F32 {
		panic("nn: Sequential Backward while pinned to F32: the float32 path is forward-only (DESIGN.md §13); SetPrecision(F64) and run Forward again before Backward")
	}
	if !s.open {
		panic("nn: Sequential Backward before Forward")
	}
	s.open = false
	defer s.arena.Release(s.mark)
	n := max(s.widest, gradOut.Size())
	bufs := [2][]float64{s.arena.f64.alloc(n), s.arena.f64.alloc(n)}
	dy := actOf(gradOut, bufs[0][:gradOut.Size()])
	copy(dy.d, gradOut.Data())
	if dx := backChain(s.layers, dy, bufs, s.arena, paramsOnly); !paramsOnly {
		return output(nil, dx)
	}
	return nil
}
