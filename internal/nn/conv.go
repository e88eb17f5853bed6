package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2D is a stride-1 two-dimensional convolution layer operating on
// NCHW tensors, the workhorse of the paper's Table-I architecture.
//
// Pad is the number of zero-padding cells added on every side before
// the valid convolution. With Pad = (K-1)/2 and odd K the layer is
// shape-preserving ("same" padding, the paper's approach 1); with
// Pad = 0 it is a valid convolution that shrinks the field by K-1 in
// each dimension (used by the neighbour-padding approach 2, where the
// enlarged input carries real data from adjacent subdomains instead of
// zeros). Pad may not exceed K-1, the full padding.
type Conv2D struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Pad         int

	// Workers enables intra-layer parallelism: the forward pass and the
	// input-gradient sweep (the same engine) fan output-column tiles out
	// to goroutines, and the dW product parallelizes its row pairs. 0 or
	// 1 (the default) keeps the layer strictly single-threaded, which
	// the critical-path timing model relies on (DESIGN.md §5); results
	// are bit-identical either way.
	Workers int

	weight *Param // [Cout, Cin, K, K]
	bias   *Param // [Cout]

	// cacheInput holds what Backward needs from the last float64
	// Forward: a reference to the raw input, which Backward re-lowers.
	cacheInput *tensor.Tensor
	scratch    *Arena // im2col workspace (never nil after NewConv2D)
	name       string

	// Float32 inference path (DESIGN.md §13): pack caches the weights
	// narrowed to f32 (shared across clones, see pack32) and f32on pins
	// the layer. The path is forward-only — Backward panics while the
	// layer is pinned.
	f32on    bool
	f32arena *Arena
	pack     *pack32
}

// NewConv2D builds a convolution layer with He-initialized weights.
func NewConv2D(name string, g *tensor.RNG, inCh, outCh, kernel, pad int) *Conv2D {
	if inCh <= 0 || outCh <= 0 || kernel <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D config in=%d out=%d k=%d pad=%d", inCh, outCh, kernel, pad))
	}
	if pad > kernel-1 { // the dX lowering's pad K-1-Pad would be negative
		panic(fmt.Sprintf("nn: Conv2D %s pad %d exceeds kernel-1 = %d", name, pad, kernel-1))
	}
	fanIn := inCh * kernel * kernel
	w := HeNormal(g, fanIn, outCh, inCh, kernel, kernel)
	b := tensor.New(outCh)
	return &Conv2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		Pad:         pad,
		weight:      NewParam(name+".weight", w),
		bias:        NewParam(name+".bias", b),
		scratch:     NewArena(),
		pack:        &pack32{},
		name:        name,
	}
}

// SamePad returns the padding that preserves spatial shape for an odd
// kernel size.
func SamePad(kernel int) int { return (kernel - 1) / 2 }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// SetScratch replaces the layer's private scratch arena with a shared
// one (see Sequential.SetScratch). a must not be nil.
func (c *Conv2D) SetScratch(a *Arena) {
	if a == nil {
		panic(fmt.Sprintf("nn: Conv2D %s SetScratch(nil)", c.name))
	}
	c.scratch = a
}

// SetWorkers sets the intra-layer parallelism knob.
func (c *Conv2D) SetWorkers(workers int) { c.Workers = workers }

// convShape is the geometry of one batched convolution call: n images
// of cin×h×w through a cout-channel k×k kernel with zero padding pad.
type convShape struct{ n, cin, h, w, k, pad, cout int }

// out returns the spatial output size.
func (g convShape) out() (oh, ow int) {
	return tensor.ConvOutSize(g.h, g.k, g.pad), tensor.ConvOutSize(g.w, g.k, g.pad)
}

// shapeFor validates an NCHW input against the layer and returns the
// call geometry.
func (c *Conv2D) shapeFor(n, cin, h, w int) convShape {
	if cin != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D %s expects %d input channels, got %d", c.name, c.InChannels, cin))
	}
	g := convShape{n: n, cin: cin, h: h, w: w, k: c.Kernel, pad: c.Pad, cout: c.OutChannels}
	if oh, ow := g.out(); oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv input %dx%d smaller than kernel %d", h+2*c.Pad, w+2*c.Pad, c.Kernel))
	}
	return g
}

// panicF32Backward is the one failure every parameterised layer (and
// Sequential) reports when asked for gradients while pinned to F32.
func panicF32Backward(layer string) {
	panic(fmt.Sprintf("nn: %s Backward while pinned to F32: the float32 path is forward-only (DESIGN.md §13); SetPrecision(F64) and run Forward again before Backward", layer))
}

// Forward implements Layer: the convolution as matrix products over
// cache-sized column tiles (convForward), with the raw input cached by
// reference for Backward. That relies on the layer protocol's
// single-flight contract — the input must not be mutated between
// Forward and the matching Backward — which holds everywhere in this
// repository, where layer inputs are the previous layer's freshly
// built output. Steady-state calls allocate nothing in the lowering;
// only the output tensor is new.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D %s needs NCHW input, got shape %v", c.name, x.Shape()))
	}
	if c.f32on {
		return forwardVia32(c, c.f32arena, x)
	}
	g := c.shapeFor(x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3))
	c.cacheInput = x
	oh, ow := g.out()
	y := tensor.New(g.n, g.cout, oh, ow)
	mark := c.scratch.Mark()
	convForward(&c.scratch.f64, c.Workers, g, x.Data(), c.weight.Value.Data(), c.bias.Value.Data(), y.Data())
	c.scratch.Release(mark)
	return y
}

// convTileCols returns the column-tile width of the tiled GEMM engine:
// wide enough to amortize per-tile setup, narrow enough that one
// [C·K² × tile] im2col panel (~512 KiB) stays L2-resident across the
// whole reduction sweep — the locality property that makes the lowered
// convolution faster than the naive loops instead of memory-bound.
// The width depends only on the layer shape, never on the worker
// count, so tiling preserves the engine's bit-identical-results
// contract.
func convTileCols(ckk, frame int) int {
	const targetFloats = 1 << 16 // 512 KiB per panel
	tw := targetFloats / ckk
	tw &^= 7
	if tw < 32 {
		tw = 32
	}
	if tw > frame {
		tw = frame
	}
	return tw
}

// convForward computes the convolution as matrix products over
// cache-sized column tiles (DESIGN.md §3), for either element width:
// each tile of output positions is lowered with Im2ColWindow into a
// [Cin·K² × tile] panel taken from scratch, the kernel tensor is viewed
// as a [Cout × Cin·K²] matrix, and the tile's output columns are
// Y[:, tile] = W·panel + b. Padding is folded into the lowering, so no
// padded input copy is ever materialized. The caller brackets the call
// with the arena's Mark/Release.
//
// The batch axis is folded into the tile axis (DESIGN.md §9): a batch
// of N images is one sweep over N·ntiles (image, tile) tasks with a
// single scratch reservation, so the whole batch flows through the
// layer as one tall lowered product instead of N independent calls.
// Tile geometry is strictly per-image — tiles never span image
// boundaries — because the GEMM kernels' per-element rounding depends
// on the element's position within its panel: per-image tiling is what
// makes a batched forward bit-identical, image for image, to N
// batch-of-1 forwards (asserted by nn/batched_test.go). With
// workers > 1 the (image, tile) tasks — whose output columns are
// disjoint — fan out to goroutines, each with its own panel, so
// parallelism scales with the batch even when a single frame has few
// tiles; with workers <= 1 the sweep is a plain loop over one panel
// that builds no closure, the zero-allocation steady state of the
// rollout loop.
func convForward[T tensor.Float](scratch *bump[T], workers int, g convShape, xd, wd, bd, yd []T) {
	oh, ow := g.out()
	ckk := tensor.Im2ColRows(g.cin, g.k)
	frame := oh * ow
	tw := convTileCols(ckk, frame)
	ntiles := (frame + tw - 1) / tw
	tasks := g.n * ntiles
	nw := min(workers, tasks)
	if nw <= 1 {
		cols := scratch.alloc(ckk * tw)
		for t := 0; t < tasks; t++ {
			convForwardTile(t, ntiles, tw, g, xd, cols, wd, bd, yd)
		}
		return
	}
	panels := make([][]T, nw)
	for w := range panels {
		panels[w] = scratch.alloc(ckk * tw)
	}
	// Worker w sweeps its contiguous range of (image, tile) tasks with
	// its own panel; task output columns are disjoint, so any
	// assignment of tasks to goroutines produces identical results.
	parallelFor(nw, nw, func(w int) {
		for t := w * tasks / nw; t < (w+1)*tasks/nw; t++ {
			convForwardTile(t, ntiles, tw, g, xd, panels[w], wd, bd, yd)
		}
	})
}

// convForwardTile runs task t of convForward: it lowers one column
// tile of one image into cols and multiplies it against the kernel
// matrix onto the bias-prefilled output columns. A nil bd means no
// bias: the product overwrites the columns, with no prefill pass.
func convForwardTile[T tensor.Float](t, ntiles, tw int, g convShape, xd, cols, wd, bd, yd []T) {
	oh, ow := g.out()
	ckk := tensor.Im2ColRows(g.cin, g.k)
	frame := oh * ow
	in, tt := t/ntiles, t%ntiles
	xn := xd[in*g.cin*g.h*g.w : (in+1)*g.cin*g.h*g.w]
	out := yd[in*g.cout*frame : (in+1)*g.cout*frame]
	j0 := tt * tw
	j1 := min(j0+tw, frame)
	tensor.Im2ColWindow(xn, g.cin, g.h, g.w, g.k, g.pad, j0, j1, cols)
	for co, bv := range bd {
		row := out[co*frame+j0 : co*frame+j1]
		for i := range row {
			row[i] = bv
		}
	}
	tensor.GemmPanelNN(g.cout, j1-j0, ckk, wd, ckk, cols, j1-j0, out[j0:], frame, bd != nil, 1)
}

// flipKernel writes the 180°-rotated, channel-transposed form of the
// [a, b, K, K] kernel src into dst as [b, a, K, K] (kk = K²).
func flipKernel[T tensor.Float](dst, src []T, a, b, kk int) {
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			d := dst[(j*a+i)*kk:][:kk]
			for p, v := range src[(i*b+j)*kk:][:kk] {
				d[kk-1-p] = v
			}
		}
	}
}

// convAdjoint is convForward over the flipped form of wd, a
// [g.cin, g.cout, K, K] kernel. The adjoint of a stride-1 convolution
// with padding P is itself a stride-1 convolution, of the flipped
// kernel with padding K-1-P, so this one gather-form sweep is both
// Conv2D's input gradient and ConvTranspose2D's forward. The flipped
// kernel is rebuilt per call into arena scratch (Cin·Cout·K² values):
// there is no cache to invalidate when the optimizer steps.
func convAdjoint(a *Arena, workers int, g convShape, xd, wd, bd, yd []float64) {
	mark := a.Mark()
	wflip := a.Alloc(len(wd))
	flipKernel(wflip, wd, g.cin, g.cout, g.k*g.k)
	convForward(&a.f64, workers, g, xd, wflip, bd, yd)
	a.Release(mark)
}

// Backward implements Layer. The parameter gradients come from
// backwardParams; the input gradient is a convolution in its own right
// (gather form, no scatter), dX = convAdjoint(dY, W, pad K-1-Pad, no
// bias), so every dX element is written exactly once and results are
// bit-identical for any worker count and, image for image, any batch
// size (convForward's per-image tiling). The dW panel is released
// before the dX sweep takes its own, so scratch high-water is the
// larger of the two, not their sum.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.backwardParams(gradOut)
	dx := tensor.New(x.Shape()...)
	g := convShape{n: x.Dim(0), cin: c.OutChannels, h: gradOut.Dim(2), w: gradOut.Dim(3), k: c.Kernel, pad: c.Kernel - 1 - c.Pad, cout: c.InChannels}
	convAdjoint(c.scratch, c.Workers, g, gradOut.Data(), c.weight.Value.Data(), nil, dx.Data())
	return dx
}

// backwardParams is the half of Backward that needs no input gradient
// (Sequential.BackwardParams calls it alone for a first layer): it
// consumes and returns the cached input, checks gradOut against it, and
// accumulates dB (per-channel sums of dY) and, per column tile with dYt
// the [Cout × tile] panel of dY, dW += dYt · panelᵀ (GemmPanelNT). The
// patch panels are recomputed from the cached raw input — the full
// lowering is ~K² times the input size, so re-lowering beats caching
// it. Tiles run serially (their dW contributions overlap); Workers > 1
// parallelizes the row pairs inside each GEMM, which keeps every
// accumulation order fixed.
func (c *Conv2D) backwardParams(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.f32on {
		panicF32Backward("Conv2D " + c.name)
	}
	if c.cacheInput == nil {
		panic(fmt.Sprintf("nn: Conv2D %s Backward before Forward", c.name))
	}
	x := c.cacheInput
	c.cacheInput = nil
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k, cout := c.Kernel, c.OutChannels
	oh := tensor.ConvOutSize(h, k, c.Pad)
	ow := tensor.ConvOutSize(wid, k, c.Pad)
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: conv backward shape mismatch x=%v w=%v dy=%v", x.Shape(), c.weight.Value.Shape(), gradOut.Shape()))
	}

	ckk := tensor.Im2ColRows(cin, k)
	frame := oh * ow
	tw := convTileCols(ckk, frame)
	mark := c.scratch.Mark()
	cols := c.scratch.Alloc(ckk * tw)
	defer c.scratch.Release(mark)

	xd, gd := x.Data(), gradOut.Data()
	dWd, dBd := c.weight.Grad.Data(), c.bias.Grad.Data()
	for in := 0; in < n; in++ {
		xn := xd[in*cin*h*wid : (in+1)*cin*h*wid]
		dy := gd[in*cout*frame : (in+1)*cout*frame]
		for co := 0; co < cout; co++ {
			s := 0.0
			for _, v := range dy[co*frame : (co+1)*frame] {
				s += v
			}
			dBd[co] += s
		}
		for j0 := 0; j0 < frame; j0 += tw {
			j1 := min(j0+tw, frame)
			twa := j1 - j0
			tensor.Im2ColWindow(xn, cin, h, wid, k, c.Pad, j0, j1, cols)
			tensor.GemmPanelNT(cout, ckk, twa, dy[j0:], frame, cols, twa, dWd, ckk, true, c.Workers)
		}
	}
	return x
}
