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
// Like Conv2D, the layer runs on the GEMM engine, in gather form both
// ways: the forward pass is Conv2D's own sweep over the flipped kernel,
// the backward pass Im2Col followed by two products.
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
	return convShape{n: n, cin: cin, h: h, w: w, k: c.Kernel, pad: c.Kernel - 1, cout: c.OutChannels}
}

// Backward implements Layer. Because Forward is the adjoint of a valid
// cross-correlation, lowering the output gradient with Im2ColWindow
// turns dx into a plain valid cross-correlation and dW into a product
// with the cached input:
//
//	panelG       = Im2ColWindow(dY)   ([Cout·K² × tile])
//	dx[:, tile]  = W · panelG         (GemmPanelNN)
//	dW          += X[:, tile]·panelGᵀ (GemmPanelNT)
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

	ckk := tensor.Im2ColRows(cout, k)
	frame := h * wid
	tw := convTileCols(ckk, frame)
	mark := c.scratch.Mark()
	colsG := c.scratch.Alloc(ckk * tw)
	defer c.scratch.Release(mark)

	dx := tensor.New(n, cin, h, wid)
	xd, wd, gd, dxd := x.Data(), c.weight.Value.Data(), gradOut.Data(), dx.Data()
	dWd, dBd := c.weight.Grad.Data(), c.bias.Grad.Data()
	for in := 0; in < n; in++ {
		dy := gd[in*cout*oh*ow : (in+1)*cout*oh*ow]
		for co := 0; co < cout; co++ {
			s := 0.0
			for _, v := range dy[co*oh*ow : (co+1)*oh*ow] {
				s += v
			}
			dBd[co] += s
		}
		xn := xd[in*cin*frame : (in+1)*cin*frame]
		dxn := dxd[in*cin*frame : (in+1)*cin*frame]
		for j0 := 0; j0 < frame; j0 += tw {
			j1 := min(j0+tw, frame)
			twa := j1 - j0
			tensor.Im2ColWindow(dy, cout, oh, ow, k, 0, j0, j1, colsG)
			tensor.GemmPanelNN(cin, twa, ckk, wd, ckk, colsG, twa, dxn[j0:], frame, false, c.Workers)
			tensor.GemmPanelNT(cin, ckk, twa, xn[j0:], frame, colsG, twa, dWd, ckk, true, c.Workers)
		}
	}
	return dx
}
