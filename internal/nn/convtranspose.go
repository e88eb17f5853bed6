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

	in      act[float64] // see Conv2D
	scratch *Arena
	pack    *pack32 // flipped, see pack32.flipIn
	name    string
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

// SetWorkers sets the intra-layer parallelism knob.
func (c *ConvTranspose2D) SetWorkers(workers int) { c.Workers = workers }

// Forward implements Layer:
// y[n,co,iy+ky,ix+kx] += x[n,ci,iy,ix] · w[ci,co,ky,kx], plus bias —
// computed not as that scatter but as the convolution it equals (the
// sweep over the flipped kernel at pad K-1, the one Conv2D's input
// gradient runs). Every output element is written by exactly one
// (image, band) task, so results are bit-identical for any worker count
// and, image for image, any batch size. x is recorded by reference, as
// in Conv2D.Forward.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	in := view(x)
	y := c.shapeFor(in.nchw(c.name)).output()
	convTransposeStage(c, in, c.scratch, y.Data())
	return y
}

// convTransposeStage is ConvTranspose2D's forward at either width (see
// conv2DStage).
func convTransposeStage[T tensor.Float](c *ConvTranspose2D, x act[T], a *Arena, y []T) act[T] {
	keep(&c.in, x)
	return convStage(c.shapeFor(x.nchw(c.name)), c.pack, c.weight, c.bias, c.Workers, x, a, y)
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
// cross-correlation of dY (Cout channels) with W as stored, viewed as
// a [Cin × Cout·K²] kernel, so dx is that convolution — convForward
// with pad 0 (inputGrad) — and dW is its weight gradient with the
// recorded input in the role of the output gradient (backwardParams):
//
//	dx[ci, iy, ix]      = Σ W[ci, co, ky, kx]·dY[co, iy+ky, ix+kx]
//	dW[ci, co, ky, kx] += Σ X[ci, iy, ix]·dY[co, iy+ky, ix+kx]
func (c *ConvTranspose2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return convBackward(c, gradOut, c.scratch)
}

// backwardParams consumes the recorded input, checks dy against it and
// accumulates dB and dW; it returns the input (see Conv2D's).
func (c *ConvTranspose2D) backwardParams(dy act[float64], a *Arena) act[float64] {
	x := c.in
	if x.rank == 0 {
		panic(fmt.Sprintf("nn: ConvTranspose2D %s Backward before Forward", c.name))
	}
	c.in = act[float64]{}
	n, _, h, wid := x.nchw(c.name)
	oh, ow := h+c.Kernel-1, wid+c.Kernel-1
	if dy.rank != 4 || dy.dims != [4]int{n, c.OutChannels, oh, ow} {
		panic(fmt.Sprintf("nn: ConvTranspose2D backward shape mismatch x=%v dy=%v", x, dy))
	}
	addChannelSums(c.bias.Grad.Data(), dy.d, oh*ow)
	convWeightGrad(a, c.Workers, c.adjoint(dy), dy.d, x.d, c.weight.Grad.Data())
	return x
}

// adjoint is the valid convolution whose result is dX: dY through W as
// stored, pad 0.
func (c *ConvTranspose2D) adjoint(dy act[float64]) convShape {
	return convShape{n: dy.dims[0], cin: c.OutChannels, h: dy.dims[2], w: dy.dims[3], k: c.Kernel, cout: c.InChannels, layer: c.name}
}

// inputGrad writes dX, the adjoint sweep over dY, into dx.
func (c *ConvTranspose2D) inputGrad(dy, dx act[float64], a *Arena) act[float64] {
	mark := a.Mark()
	convForward(&a.f64, c.Workers, c.adjoint(dy), dy.d, c.weight.Value.Data(), nil, dx.d)
	a.Release(mark)
	return dx
}
