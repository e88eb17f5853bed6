package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Dense is a fully connected layer mapping [N, In] → [N, Out] with
// y = xW + b. The batch axis is native: the whole batch is one matrix
// product (no per-sample loop in the contraction), and each row of the
// result is bit-identical to a batch-of-1 call on that row. It
// supports experiments comparing the paper's CNN against fully
// connected alternatives and serves as the output head of the
// recurrent extension.
type Dense struct {
	In, Out int

	weight *Param // [In, Out]
	bias   *Param // [Out]

	cacheInput *tensor.Tensor
	name       string

	// Float32 inference path — see the matching fields on Conv2D.
	f32on    bool
	f32arena *Arena
	pack     *pack32
}

// NewDense builds a dense layer with Xavier-initialized weights.
func NewDense(name string, g *tensor.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense config in=%d out=%d", in, out))
	}
	return &Dense{
		In:     in,
		Out:    out,
		weight: NewParam(name+".weight", XavierUniform(g, in, out, in, out)),
		bias:   NewParam(name+".bias", tensor.New(out)),
		pack:   &pack32{},
		name:   name,
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense %s needs [N,%d] input, got %v", d.name, d.In, x.Shape()))
	}
	if d.f32on {
		return forwardVia32(d, d.f32arena, x)
	}
	d.cacheInput = x.Clone()
	y := tensor.New(x.Dim(0), d.Out)
	denseForward(x.Dim(0), d.In, d.Out, x.Data(), d.weight.Value.Data(), d.bias.Value.Data(), y.Data())
	return y
}

// denseForward computes y = xW + b for either element width: one
// panel product over the whole batch, then the bias added row by row.
func denseForward[T tensor.Float](n, in, out int, xd, wd, bd, yd []T) {
	tensor.GemmPanelNN(n, out, in, xd, in, wd, out, yd, out, false, 1)
	for i := 0; i < n; i++ {
		row := yd[i*out : (i+1)*out]
		for j := range row {
			row[j] += bd[j]
		}
	}
}

// Backward implements Layer: dx = dy·Wᵀ, dW += xᵀ·dy, db += Σ_n dy.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.f32on {
		panicF32Backward("Dense " + d.name)
	}
	if d.cacheInput == nil {
		panic(fmt.Sprintf("nn: Dense %s Backward before Forward", d.name))
	}
	x := d.cacheInput
	d.cacheInput = nil
	n := x.Dim(0)
	if gradOut.Rank() != 2 || gradOut.Dim(0) != n || gradOut.Dim(1) != d.Out {
		panic(fmt.Sprintf("nn: Dense backward shape mismatch x=%v dy=%v", x.Shape(), gradOut.Shape()))
	}
	gd, xd := gradOut.Data(), x.Data()
	wd := d.weight.Value.Data()
	dWd, dBd := d.weight.Grad.Data(), d.bias.Grad.Data()
	dx := tensor.New(n, d.In)
	dxd := dx.Data()
	for i := 0; i < n; i++ {
		gRow := gd[i*d.Out : (i+1)*d.Out]
		xRow := xd[i*d.In : (i+1)*d.In]
		dxRow := dxd[i*d.In : (i+1)*d.In]
		for j, g := range gRow {
			dBd[j] += g
		}
		for p := 0; p < d.In; p++ {
			wRow := wd[p*d.Out : (p+1)*d.Out]
			dWRow := dWd[p*d.Out : (p+1)*d.Out]
			xv := xRow[p]
			acc := 0.0
			for j, g := range gRow {
				acc += g * wRow[j]
				dWRow[j] += g * xv
			}
			dxRow[p] = acc
		}
	}
	return dx
}

// Flatten reshapes [N, ...] to [N, prod(...)] and back in Backward.
type Flatten struct {
	cacheShape []int
	name       string
}

// NewFlatten builds a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: Flatten %s needs rank ≥ 2, got %v", f.name, x.Shape()))
	}
	f.cacheShape = x.Shape()
	n := x.Dim(0)
	return x.Clone().Reshape(n, x.Size()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if f.cacheShape == nil {
		panic(fmt.Sprintf("nn: Flatten %s Backward before Forward", f.name))
	}
	shape := f.cacheShape
	f.cacheShape = nil
	return gradOut.Clone().Reshape(shape...)
}
