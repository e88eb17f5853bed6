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
	// to goroutines, and the dW product parallelizes its row blocks. 0 or
	// 1 (the default) keeps the layer strictly single-threaded, which
	// the critical-path timing model relies on (DESIGN.md §5); results
	// are bit-identical either way.
	Workers int

	weight *Param // [Cout, Cin, K, K]
	bias   *Param // [Cout]

	// in is the input of the last float64 forward, until Backward: a
	// view of the caller's tensor, or an activation in a chain's arena.
	in      act[float64]
	scratch *Arena // band buffers of the layer's own tensor API
	// pack caches the weights narrowed to float32 for the chain's F32
	// path (DESIGN.md §13), shared across clones (see pack32).
	pack *pack32
	name string
}

// NewConv2D builds a convolution layer with He-initialized weights.
func NewConv2D(name string, g *tensor.RNG, inCh, outCh, kernel, pad int) *Conv2D {
	if inCh <= 0 || outCh <= 0 || kernel <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D config in=%d out=%d k=%d pad=%d", inCh, outCh, kernel, pad))
	}
	if pad > kernel-1 { // the dX sweep's pad K-1-Pad would be negative
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

// SetWorkers sets the intra-layer parallelism knob.
func (c *Conv2D) SetWorkers(workers int) { c.Workers = workers }

// convShape is the geometry of one batched convolution call: n images
// of cin×h×w through a cout-channel k×k kernel with zero padding pad,
// run on behalf of the named layer.
type convShape struct {
	n, cin, h, w, k, pad, cout int
	layer                      string
}

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
	return convShape{n: n, cin: cin, h: h, w: w, k: c.Kernel, pad: c.Pad, cout: c.OutChannels, layer: c.name}.check()
}

// check returns g, or panics naming the layer on a geometry the engine
// cannot run: an input smaller than the kernel, or a pad outside
// [0, K−1]. NewConv2D refuses such a pad, but a Conv2D forced past K−1
// through its exported field would otherwise ask its dX sweep for a
// negative one.
func (g convShape) check() convShape {
	if g.pad < 0 || g.pad > g.k-1 {
		panic(fmt.Sprintf("nn: layer %s: convolution pad %d outside [0, kernel-1 = %d]", g.layer, g.pad, g.k-1))
	}
	if oh, ow := g.out(); oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: layer %s: conv input %dx%d smaller than kernel %d", g.layer, g.h+2*g.pad, g.w+2*g.pad, g.k))
	}
	return g
}

// output allocates the output tensor of the convolution g.
func (g convShape) output() *tensor.Tensor {
	oh, ow := g.out()
	return tensor.New(g.n, g.cout, oh, ow)
}

// Forward implements Layer: conv2DStage on a view of x into a fresh
// tensor. x is recorded by reference for Backward — the layer
// protocol's single-flight contract: it must not be mutated before the
// matching Backward, which holds everywhere in this repository, where
// layer inputs are the previous layer's output. Steady-state calls
// allocate nothing in the engine; only the output tensor is new.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	in := view(x)
	y := c.shapeFor(in.nchw(c.name)).output()
	conv2DStage(c, in, c.scratch, y.Data())
	return y
}

// conv2DStage is Conv2D's forward at either width, for Forward and for
// the Sequential chain alike: it records x (keep) and runs convStage.
func conv2DStage[T tensor.Float](c *Conv2D, x act[T], a *Arena, y []T) act[T] {
	keep(&c.in, x)
	return convStage(c.shapeFor(x.nchw(c.name)), c.pack, c.weight, c.bias, c.Workers, x, a, y)
}

// convStage is the forward of both convolution layers at width T: the
// sweep g over x with the layer's weights, into y — or into a fresh
// slice of a when y is nil. The weight scratch and band buffers sit
// above the output and are released before it returns.
func convStage[T tensor.Float](g convShape, p *pack32, w, b *Param, workers int, x act[T], a *Arena, y []T) act[T] {
	oh, ow := g.out()
	if y == nil {
		y = bumpOf[T](a).alloc(g.n * g.cout * oh * ow)
	}
	mark := a.Mark()
	wd, bd := weights[T](p, w, b, a)
	convForward(bumpOf[T](a), workers, g, x.d, wd, bd, y)
	a.Release(mark)
	return act[T]{dims: [4]int{g.n, g.cout, oh, ow}, rank: 4, d: y}
}

// convBandFloats is the size of a band buffer — its padded input rows
// plus cout full-width rows — 256 KiB of float64, unless one band row
// needs more. Every layer asks for the same size, so the layers of a
// network reuse one arena chunk instead of each growing its own. A
// backward takes two buffers in turn (dW's, then dX's behind the
// flipped kernel), so a layer's scratch stays within 1<<16 elements,
// about one lowered panel's worth (TestConvScratchHighWater).
const convBandFloats = 1 << 15

// convPlan is how the engine cuts a convShape (DESIGN.md §3): each
// image into bands of rows output rows — the last band may be shorter
// — whose padded input rows, rows+K−1 of them at width wp, are copied
// once per band. The band height depends only on the layer shape and
// the input width, never on the worker count or the batch size, which
// is what keeps results bit-identical across both.
type convPlan struct {
	convShape
	oh, ow, wp, rows, bands int
}

// plan checks g and returns its banding.
func (g convShape) plan() convPlan {
	oh, ow := g.check().out()
	wp := g.w + 2*g.pad
	rows := max(1, min(oh, (convBandFloats/wp-g.cin*(g.k-1))/(g.cin+g.cout)))
	bands := (oh + rows - 1) / rows
	return convPlan{convShape: g, oh: oh, ow: ow, wp: wp, rows: (oh + bands - 1) / bands, bands: bands}
}

// bandLen is the band buffer: the padded input rows, then cout
// full-width rows (the accumulator, or dY for the weight gradient),
// rounded up to convBandFloats.
func (p convPlan) bandLen() int {
	return max(convBandFloats, (p.cin*(p.rows+p.k-1)+p.cout*p.rows)*p.wp)
}

// convBand is task t of a banded sweep: output rows [oy0, oy0+r) of
// image img. Its padded input rows sit at the front of the band buffer,
// read through tp; its cout full-width rows follow, ld apart, of which
// the first n columns are computed (the K−1 per row past ow are
// dropped).
type convBand struct {
	img, oy0, r, n, ld int
	tp                 tensor.Taps
}

// loadBand copies the padded input rows of band t of the batch xd into
// the front of buf. It returns the band, that copy, and the rest of buf.
func loadBand[T tensor.Float](p convPlan, t int, xd, buf []T) (convBand, []T, []T) {
	img, oy0 := t/p.bands, t%p.bands*p.rows
	r := min(p.rows, p.oh-oy0)
	tp := tensor.Taps{C: p.cin, K: p.k, CS: (r + p.k - 1) * p.wp, RS: p.wp}
	per := p.cin * p.h * p.w
	tensor.PadRows(xd[img*per:][:per], p.cin, p.h, p.w, p.pad, oy0, oy0+r+p.k-1, buf)
	return convBand{img, oy0, r, (r-1)*p.wp + p.ow, r * p.wp, tp}, buf[:p.cin*tp.CS], buf[p.cin*tp.CS:]
}

// convForward computes the convolution (DESIGN.md §3), for either
// element width, without lowering it. Per band of output rows it copies
// the padded input rows the band reads (PadRows), accumulates the
// kernel — viewed as a [Cout × Cin·K²] matrix — against shifted slices
// of that copy at every full-width output position (ShiftedNN, bias
// prefilled), and copies the valid columns out. The caller brackets
// the call with the arena's Mark/Release.
//
// The batch axis is folded into the band axis (DESIGN.md §9): a batch
// of N images is one sweep over N·bands (image, band) tasks. Bands
// never span images, and the SIMD kernels' rounding depends only on a
// band's own geometry, so a batched forward is bit-identical, image
// for image, to N batch-of-1 forwards (nn/batched_test.go). With
// workers > 1 the tasks — whose output rows are disjoint — fan out to
// goroutines, each with its own band buffer; with workers <= 1 the
// sweep is a plain loop over one buffer that builds no closure, the
// zero-allocation steady state of the rollout loop.
func convForward[T tensor.Float](scratch *bump[T], workers int, g convShape, xd, wd, bd, yd []T) {
	p := g.plan()
	tasks := g.n * p.bands
	nw := min(workers, tasks)
	if nw <= 1 {
		buf := scratch.alloc(p.bandLen())
		for t := 0; t < tasks; t++ {
			convForwardBand(p, t, xd, wd, bd, yd, buf)
		}
		return
	}
	bufs := make([][]T, nw)
	for w := range bufs {
		bufs[w] = scratch.alloc(p.bandLen())
	}
	// Worker w sweeps its contiguous range of (image, band) tasks with
	// its own buffer; task output rows are disjoint, so any assignment
	// of tasks to goroutines produces identical results.
	parallelFor(nw, nw, func(w int) {
		for t := w * tasks / nw; t < (w+1)*tasks/nw; t++ {
			convForwardBand(p, t, xd, wd, bd, yd, bufs[w])
		}
	})
}

// convForwardBand runs task t of convForward. A nil bd means no bias:
// the product overwrites the accumulator, with no prefill pass.
func convForwardBand[T tensor.Float](p convPlan, t int, xd, wd, bd, yd, buf []T) {
	b, xb, acc := loadBand(p, t, xd, buf)
	for co, bv := range bd {
		row := acc[co*b.ld:][:b.n]
		for i := range row {
			row[i] = bv
		}
	}
	tensor.ShiftedNN(p.cout, b.n, wd, p.cin*p.k*p.k, xb, b.tp, acc, b.ld, bd != nil, 1)
	out := yd[b.img*p.cout*p.oh*p.ow:]
	for co := 0; co < p.cout; co++ {
		for y := 0; y < b.r; y++ {
			copy(out[(co*p.oh+b.oy0+y)*p.ow:][:p.ow], acc[co*b.ld+y*p.wp:])
		}
	}
}

// convWeightGrad accumulates the weight gradient of the convolution g
// over the batch, dW[co, ci, ky, kx] += Σ dY[co, oy, ox]·x̃[ci, oy+ky,
// ox+kx] with x̃ the zero-padded input, in convForward's bands: per band
// the padded input rows, dY copied into the band's full-width layout
// with zeros in the dropped columns, and one ShiftedNT. Bands run in
// order (their contributions overlap); workers > 1 parallelizes the row
// blocks of each product, which keeps every accumulation order fixed.
// Conv2D's dW and ConvTranspose2D's both come from here.
func convWeightGrad(a *Arena, workers int, g convShape, xd, dyd, dwd []float64) {
	p := g.plan()
	mark := a.Mark()
	buf := a.f64.alloc(p.bandLen())
	for t := 0; t < g.n*p.bands; t++ {
		b, xb, dyb := loadBand(p, t, xd, buf)
		dy := dyd[b.img*p.cout*p.oh*p.ow:]
		for co := 0; co < p.cout; co++ {
			for y := 0; y < b.r; y++ {
				row := dyb[co*b.ld+y*p.wp:][:p.wp]
				copy(row, dy[(co*p.oh+b.oy0+y)*p.ow:][:p.ow])
				clear(row[p.ow:])
			}
		}
		tensor.ShiftedNT(p.cout, b.n, dyb, b.ld, xb, b.tp, dwd, p.cin*p.k*p.k, true, workers)
	}
	a.Release(mark)
}

// addChannelSums accumulates the bias gradient: db[c] += Σ dy over
// every image's channel c plane of frame values.
func addChannelSums(db, dy []float64, frame int) {
	c := len(db)
	for i := 0; i < len(dy); i += frame {
		s := 0.0
		for _, v := range dy[i : i+frame] {
			s += v
		}
		db[i/frame%c] += s
	}
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

// conv is the backward stage both convolution layers implement: the
// parameter gradients, which consume the recorded input and return it,
// then the input gradient into a buffer of its shape.
type conv interface {
	backwardParams(dy act[float64], a *Arena) act[float64]
	inputGrad(dy, dx act[float64], a *Arena) act[float64]
}

// convBackward is a convolution's Backward on the tensor API: the
// backward stage with dX in a fresh tensor.
func convBackward(c conv, gradOut *tensor.Tensor, a *Arena) *tensor.Tensor {
	dy := view(gradOut)
	x := c.backwardParams(dy, a)
	dx := tensor.New(x.shape()...)
	c.inputGrad(dy, view(dx), a)
	return dx
}

// Backward implements Layer (convBackward).
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return convBackward(c, gradOut, c.scratch)
}

// backwardParams is the half of the backward stage that needs no input
// gradient (Sequential.BackwardParams stops here for a first layer): it
// consumes the recorded input, checks dy against it, accumulates dB
// (per-channel sums of dY) and dW (convWeightGrad, which reads the
// input band by band — the same copies the forward made), and returns
// the input, whose shape dX takes.
func (c *Conv2D) backwardParams(dy act[float64], a *Arena) act[float64] {
	x := c.in
	if x.rank == 0 {
		panic(fmt.Sprintf("nn: Conv2D %s Backward before Forward", c.name))
	}
	c.in = act[float64]{}
	g := c.shapeFor(x.nchw(c.name))
	oh, ow := g.out()
	if dy.rank != 4 || dy.dims != [4]int{g.n, g.cout, oh, ow} {
		panic(fmt.Sprintf("nn: conv backward shape mismatch x=%v w=%v dy=%v", x, c.weight.Value.Shape(), dy))
	}
	addChannelSums(c.bias.Grad.Data(), dy.d, oh*ow)
	convWeightGrad(a, c.Workers, g, x.d, dy.d, c.weight.Grad.Data())
	return x
}

// inputGrad writes the input gradient into dx and returns it. The
// adjoint of a stride-1 convolution with padding P is itself a stride-1
// convolution, of the flipped, channel-transposed kernel with padding
// K-1-P, so dX is the forward sweep over that kernel (gather form, no
// scatter): every dX element is written exactly once, and results are
// bit-identical for any worker count and, image for image, any batch
// size (convForward's per-image bands). The flipped kernel is rebuilt
// per call into arena scratch (Cin·Cout·K² values): there is no cache
// to invalidate when the optimizer steps. backwardParams released its
// band before this sweep takes its own, so the live scratch is the
// larger of the two, not their sum.
func (c *Conv2D) inputGrad(dy, dx act[float64], a *Arena) act[float64] {
	g := convShape{n: dx.dims[0], cin: c.OutChannels, h: dy.dims[2], w: dy.dims[3], k: c.Kernel, pad: c.Kernel - 1 - c.Pad, cout: c.InChannels, layer: c.name}
	wd := c.weight.Value.Data()
	mark := a.Mark()
	wflip := a.f64.alloc(len(wd))
	flipKernel(wflip, wd, g.cin, g.cout, g.k*g.k)
	convForward(&a.f64, c.Workers, g, dy.d, wflip, nil, dx.d)
	a.Release(mark)
	return dx
}
