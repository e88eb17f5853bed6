package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// This file is the test oracle of the convolution engine (DESIGN.md
// §3): the original nested-loop implementations of Conv2D and
// ConvTranspose2D, derived independently of the im2col + GEMM
// lowering. They agree with the engine to float round-off on forward
// results and on every gradient — the crosscheck tests assert it — and
// are themselves finite-difference-checked by the gradcheck tests.

// refConv2D runs a Conv2D's parameters through the reference loops.
type refConv2D struct {
	*Conv2D
	cache *tensor.Tensor // padded input of the last Forward
}

// Forward implements Layer.
func (r *refConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	xp := x
	if r.Pad > 0 {
		xp = tensor.Pad2D(x, r.Pad)
	} else {
		xp = x.Clone() // keep an immutable copy for backward
	}
	r.cache = xp
	return validConvForward(xp, r.weight.Value, r.bias.Value, r.Workers)
}

// Backward implements Layer.
func (r *refConv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	dxPadded := validConvBackward(r.cache, r.weight.Value, gradOut, r.weight.Grad, r.bias.Grad, r.Workers)
	r.cache = nil
	if r.Pad > 0 {
		return tensor.Crop2D(dxPadded, r.Pad)
	}
	return dxPadded
}

// refConvTranspose2D runs a ConvTranspose2D's parameters through the
// reference loops.
type refConvTranspose2D struct {
	*ConvTranspose2D
	cache *tensor.Tensor
}

// Forward implements Layer:
// y[n,co,iy+ky,ix+kx] += x[n,ci,iy,ix] · w[ci,co,ky,kx], plus bias.
func (r *refConvTranspose2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.cache = x.Clone()
	c := r.ConvTranspose2D
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k := c.Kernel
	cout := c.OutChannels
	oh, ow := h+k-1, wid+k-1
	y := tensor.New(n, cout, oh, ow)
	xd, wd, yd, bd := x.Data(), c.weight.Value.Data(), y.Data(), c.bias.Value.Data()
	for in := 0; in < n; in++ {
		for co := 0; co < cout; co++ {
			outBase := (in*cout + co) * oh * ow
			bv := bd[co]
			for i := outBase; i < outBase+oh*ow; i++ {
				yd[i] = bv
			}
			for ci := 0; ci < cin; ci++ {
				inBase := (in*cin + ci) * h * wid
				wBase := ((ci*cout + co) * k) * k
				for ky := 0; ky < k; ky++ {
					for iy := 0; iy < h; iy++ {
						srcRow := xd[inBase+iy*wid : inBase+(iy+1)*wid]
						dstRow := yd[outBase+(iy+ky)*ow : outBase+(iy+ky)*ow+ow]
						for kx := 0; kx < k; kx++ {
							wv := wd[wBase+ky*k+kx]
							if wv == 0 {
								continue
							}
							dst := dstRow[kx : kx+wid]
							for ix, xv := range srcRow {
								dst[ix] += wv * xv
							}
						}
					}
				}
			}
		}
	}
	return y
}

// Backward implements Layer. Because Forward is the adjoint of a valid
// cross-correlation, dx is exactly a valid cross-correlation of the
// output gradient with the kernel.
func (r *refConvTranspose2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x, c := r.cache, r.ConvTranspose2D
	r.cache = nil
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k := c.Kernel
	cout := c.OutChannels
	oh, ow := h+k-1, wid+k-1
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: ConvTranspose2D backward shape mismatch x=%v dy=%v", x.Shape(), gradOut.Shape()))
	}
	dx := tensor.New(n, cin, h, wid)
	xd, wd, gd, dxd := x.Data(), c.weight.Value.Data(), gradOut.Data(), dx.Data()
	dWd, dBd := c.weight.Grad.Data(), c.bias.Grad.Data()
	for in := 0; in < n; in++ {
		for co := 0; co < cout; co++ {
			gBase := (in*cout + co) * oh * ow
			s := 0.0
			for i := gBase; i < gBase+oh*ow; i++ {
				s += gd[i]
			}
			dBd[co] += s
			for ci := 0; ci < cin; ci++ {
				inBase := (in*cin + ci) * h * wid
				wBase := ((ci*cout + co) * k) * k
				for ky := 0; ky < k; ky++ {
					for iy := 0; iy < h; iy++ {
						srcRow := xd[inBase+iy*wid : inBase+(iy+1)*wid]
						dxRow := dxd[inBase+iy*wid : inBase+(iy+1)*wid]
						gRow := gd[gBase+(iy+ky)*ow : gBase+(iy+ky)*ow+ow]
						for kx := 0; kx < k; kx++ {
							wv := wd[wBase+ky*k+kx]
							g := gRow[kx : kx+wid]
							acc := 0.0
							for ix := range srcRow {
								acc += g[ix] * srcRow[ix]
								dxRow[ix] += g[ix] * wv
							}
							dWd[wBase+ky*k+kx] += acc
						}
					}
				}
			}
		}
	}
	return dx
}

// asReference returns l with every convolution (at any depth of
// Sequential nesting) replaced by its reference-loop twin over the
// same parameters; other layers are shared as they are.
func asReference(l Layer) Layer {
	switch l := l.(type) {
	case *Conv2D:
		return &refConv2D{Conv2D: l}
	case *ConvTranspose2D:
		return &refConvTranspose2D{ConvTranspose2D: l}
	case *Sequential:
		ref := NewSequential()
		for _, inner := range l.layers {
			ref.Add(asReference(inner))
		}
		return ref
	}
	return l
}

// validConvForward computes a stride-1 valid cross-correlation:
// y[n,co,oy,ox] = b[co] + Σ_{ci,ky,kx} x[n,ci,oy+ky,ox+kx] · w[co,ci,ky,kx].
// With workers > 1, (batch, output-channel) tasks run concurrently;
// their output regions are disjoint, so the result is identical.
func validConvForward(x, w, b *tensor.Tensor, workers int) *tensor.Tensor {
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	cout, k := w.Dim(0), w.Dim(2)
	oh, ow := h-k+1, wid-k+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv input %dx%d smaller than kernel %d", h, wid, k))
	}
	y := tensor.New(n, cout, oh, ow)
	xd, wd, yd, bd := x.Data(), w.Data(), y.Data(), b.Data()
	parallelFor(n*cout, workers, func(task int) {
		in, co := task/cout, task%cout
		outBase := (in*cout + co) * oh * ow
		bv := bd[co]
		for i := outBase; i < outBase+oh*ow; i++ {
			yd[i] = bv
		}
		for ci := 0; ci < cin; ci++ {
			inBase := (in*cin + ci) * h * wid
			wBase := ((co*cin + ci) * k) * k
			for ky := 0; ky < k; ky++ {
				wrow := wd[wBase+ky*k : wBase+(ky+1)*k]
				for oy := 0; oy < oh; oy++ {
					srcRow := xd[inBase+(oy+ky)*wid : inBase+(oy+ky)*wid+wid]
					dstRow := yd[outBase+oy*ow : outBase+(oy+1)*ow]
					for kx := 0; kx < k; kx++ {
						wv := wrow[kx]
						if wv == 0 {
							continue
						}
						src := srcRow[kx : kx+ow]
						for ox := range dstRow {
							dstRow[ox] += wv * src[ox]
						}
					}
				}
			}
		}
	})
	return y
}

// validConvBackward accumulates dW and dB from gradOut and returns
// dL/dx for the (already padded) input of validConvForward. With
// workers > 1 the bias gradient is computed serially (it is cheap),
// and the main sweep fans out over input channels, whose dW and dx
// regions are disjoint — results are identical to the serial path.
func validConvBackward(x, w, gradOut, dW, dB *tensor.Tensor, workers int) *tensor.Tensor {
	n, cin, h, wid := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	cout, k := w.Dim(0), w.Dim(2)
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	if gradOut.Dim(0) != n || gradOut.Dim(1) != cout || oh != h-k+1 || ow != wid-k+1 {
		panic(fmt.Sprintf("nn: conv backward shape mismatch x=%v w=%v dy=%v", x.Shape(), w.Shape(), gradOut.Shape()))
	}
	dx := tensor.New(n, cin, h, wid)
	xd, wd, gd, dxd := x.Data(), w.Data(), gradOut.Data(), dx.Data()
	dWd, dBd := dW.Data(), dB.Data()

	// Bias gradient: sum of the output gradient per output channel.
	for in := 0; in < n; in++ {
		for co := 0; co < cout; co++ {
			gBase := (in*cout + co) * oh * ow
			s := 0.0
			for i := gBase; i < gBase+oh*ow; i++ {
				s += gd[i]
			}
			dBd[co] += s
		}
	}

	parallelFor(cin, workers, func(ci int) {
		for in := 0; in < n; in++ {
			inBase := (in*cin + ci) * h * wid
			for co := 0; co < cout; co++ {
				gBase := (in*cout + co) * oh * ow
				wBase := ((co*cin + ci) * k) * k
				for ky := 0; ky < k; ky++ {
					for oy := 0; oy < oh; oy++ {
						gRow := gd[gBase+oy*ow : gBase+(oy+1)*ow]
						srcRow := xd[inBase+(oy+ky)*wid : inBase+(oy+ky)*wid+wid]
						dxRow := dxd[inBase+(oy+ky)*wid : inBase+(oy+ky)*wid+wid]
						for kx := 0; kx < k; kx++ {
							wv := wd[wBase+ky*k+kx]
							acc := 0.0
							src := srcRow[kx : kx+ow]
							dst := dxRow[kx : kx+ow]
							for ox, g := range gRow {
								acc += g * src[ox]
								dst[ox] += g * wv
							}
							dWd[wBase+ky*k+kx] += acc
						}
					}
				}
			}
		}
	})
	return dx
}
