package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvTranspose2D is a stride-1 transpose convolution ("deconvolution")
// on NCHW tensors: every input pixel scatters a K×K stamp into the
// output, growing the field by K-1 in each dimension. This implements
// the paper's §III approach 4 for recovering the spatial size lost by
// valid convolutions ("Adding de-convolutional layers or the transpose
// convolution ... currently under investigation").
//
// The weight layout is [Cin, Cout, K, K] (the PyTorch ConvTranspose2d
// convention): the forward map is exactly the adjoint of Conv2D's
// valid cross-correlation with a [Cin→Cout] kernel.
//
// Like Conv2D, the layer runs on the banded engine, in gather form both
// ways: the forward pass is Conv2D's own sweep over the flipped kernel,
// the backward pass that sweep over the kernel as stored plus
// convWeightGrad.
type ConvTranspose2D struct {
	InChannels  int
	OutChannels int
	Kernel      int

	// Workers enables intra-layer parallelism of the GEMM engine;
	// results are bit-identical for any value.
	Workers int

	weight *Param // [Cin, Cout, K, K]
	bias   *Param // [Cout]

	cacheInput *tensor.Tensor
	scratch    *Arena
	name       string

	// Float32 inference path — see the matching fields on Conv2D.
	f32on    bool
	f32arena *Arena
	pack     *pack32
}

// NewConvTranspose2D builds a transpose convolution layer with
// He-initialized weights.
func NewConvTranspose2D(name string, g *tensor.RNG, inCh, outCh, kernel int) *ConvTranspose2D {
	if inCh <= 0 || outCh <= 0 || kernel <= 0 {
		panic(fmt.Sprintf("nn: invalid ConvTranspose2D config in=%d out=%d k=%d", inCh, outCh, kernel))
	}
	fanIn := inCh * kernel * kernel
	w := HeNormal(g, fanIn, inCh, outCh, kernel, kernel)
	b := tensor.New(outCh)
	return &ConvTranspose2D{
		InChannels:  inCh,
		OutChannels: outCh,
		Kernel:      kernel,
		weight:      NewParam(name+".weight", w),
		bias:        NewParam(name+".bias", b),
		scratch:     NewArena(),
		pack:        &pack32{flipIn: inCh, flipOut: outCh},
		name:        name,
	}
}

// Name implements Layer.
func (c *ConvTranspose2D) Name() string { return c.name }

// Params implements Layer.
func (c *ConvTranspose2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// SetScratch replaces the layer's private scratch arena with a shared
// one (see Sequential.SetScratch). a must not be nil.
func (c *ConvTranspose2D) SetScratch(a *Arena) {
	if a == nil {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s SetScratch(nil)", c.name))
	}
	c.scratch = a
}

// SetWorkers sets the intra-layer parallelism knob.
func (c *ConvTranspose2D) SetWorkers(workers int) { c.Workers = workers }

// Forward implements Layer:
// y[n,co,iy+ky,ix+kx] += x[n,ci,iy,ix] · w[ci,co,ky,kx], plus bias —
// computed not as that scatter but as the convolution it equals
// (convAdjoint, pad K-1), the same sweep Conv2D.Backward uses for dX.
// Every output element is written by exactly one (image, tile) task, so
// results are bit-identical for any worker count and, image for image,
// any batch size. The input is cached by reference (see
// Conv2D.Forward): it must not be mutated between Forward and the
// matching Backward.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s needs NCHW input, got %v", c.name, x.Shape()))
	}
	if c.f32on {
		return forwardVia32(c, c.f32arena, x)
	}
	g := c.shapeFor(x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3))
	c.cacheInput = x
	oh, ow := g.out()
	y := tensor.New(g.n, g.cout, oh, ow)
	convAdjoint(c.scratch, c.Workers, g, x.Data(), c.weight.Value.Data(), c.bias.Value.Data(), y.Data())
	return y
}

// shapeFor validates an NCHW input against the layer and returns the
// geometry of the equivalent convolution (pad K-1).
func (c *ConvTranspose2D) shapeFor(n, cin, h, w int) convShape {
	if cin != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s expects %d input channels, got %d", c.name, c.InChannels, cin))
	}
	return convShape{n: n, cin: cin, h: h, w: w, k: c.Kernel, pad: c.Kernel - 1, cout: c.OutChannels, layer: c.name}
}

// Backward implements Layer. Forward is the adjoint of the valid
// cross-correlation g of dY (Cout channels) with W as stored, viewed as
// a [Cin × Cout·K²] kernel, so dx is that convolution — convForward
// with pad 0 — and dW is its weight gradient with the cached input in
// the role of the output gradient (convWeightGrad):
//
//	dx[ci, iy, ix]      = Σ W[ci, co, ky, kx]·dY[co, iy+ky, ix+kx]
//	dW[ci, co, ky, kx] += Σ X[ci, iy, ix]·dY[co, iy+ky, ix+kx]
func (c *ConvTranspose2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.f32on {
		panicF32Backward("ConvTranspose2D " + c.name)
	}
	if c.cacheInput == nil {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s Backward before Forward", c.name))
	}
	x := c.cacheInput
	c.cacheInput = nil
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k, cout := c.Kernel, c.OutChannels
	oh, ow := h+k-1, wid+k-1
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: ConvTranspose2D backward shape mismatch x=%v dy=%v", x.Shape(), gradOut.Shape()))
	}
	g := convShape{n: n, cin: cout, h: oh, w: ow, k: k, pad: 0, cout: cin, layer: c.name}
	addChannelSums(c.bias.Grad.Data(), gradOut.Data(), oh*ow)
	convWeightGrad(c.scratch, c.Workers, g, gradOut.Data(), x.Data(), c.weight.Grad.Data())
	dx := tensor.New(n, cin, h, wid)
	mark := c.scratch.Mark()
	convForward(&c.scratch.f64, c.Workers, g, gradOut.Data(), c.weight.Value.Data(), nil, dx.Data())
	c.scratch.Release(mark)
	return dx
}
