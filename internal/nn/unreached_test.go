package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because tests
// in this package are about it: the ablation activations, the dense
// head and its Xavier initializer, and the gradient (un)flatteners.
// Delete each together with the tests CHANGES.md (PR 24) lists for it.

// ReLU is the plain rectifier (Eq. 1), provided for the activation
// ablation. Like LeakyReLU it caches a byte mask of the clipped lanes
// instead of cloning its input.
type ReLU struct {
	negMask   []uint8
	haveCache bool
	name      string
}

// NewReLU builds a ReLU activation.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	if cap(l.negMask) < x.Size() {
		l.negMask = make([]uint8, x.Size())
	}
	mask := l.negMask[:x.Size()]
	y := tensor.New(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	for i, v := range xd {
		if v < 0 {
			yd[i] = 0
			mask[i] = 1
		} else {
			yd[i] = v
			mask[i] = 0
		}
	}
	l.haveCache = true
	return y
}

// Backward implements Layer.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !l.haveCache {
		panic(fmt.Sprintf("nn: ReLU %s Backward before Forward", l.name))
	}
	l.haveCache = false
	out := gradOut.Clone()
	od, mask := out.Data(), l.negMask[:gradOut.Size()]
	for i := range od {
		if mask[i] != 0 {
			od[i] = 0
		}
	}
	return out
}

// Tanh is the hyperbolic-tangent activation, included for the
// activation ablation (the paper cites Glorot et al. for why ReLU
// variants beat it).
type Tanh struct {
	cacheOutput *tensor.Tensor
	name        string
}

// NewTanh builds a tanh activation.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (l *Tanh) Name() string { return l.name }

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	for i, v := range y.Data() {
		y.Data()[i] = math.Tanh(v)
	}
	l.cacheOutput = y.Clone()
	return y
}

// Backward implements Layer using dtanh = 1 - tanh².
func (l *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.cacheOutput == nil {
		panic(fmt.Sprintf("nn: Tanh %s Backward before Forward", l.name))
	}
	y := l.cacheOutput
	l.cacheOutput = nil
	out := gradOut.Clone()
	od, yd := out.Data(), y.Data()
	for i := range od {
		od[i] *= 1 - yd[i]*yd[i]
	}
	return out
}

// Sigmoid is the logistic activation, included for the activation
// ablation.
type Sigmoid struct {
	cacheOutput *tensor.Tensor
	name        string
}

// NewSigmoid builds a sigmoid activation.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (l *Sigmoid) Name() string { return l.name }

// Params implements Layer.
func (l *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	for i, v := range y.Data() {
		y.Data()[i] = 1 / (1 + math.Exp(-v))
	}
	l.cacheOutput = y.Clone()
	return y
}

// Backward implements Layer using dσ = σ(1-σ).
func (l *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.cacheOutput == nil {
		panic(fmt.Sprintf("nn: Sigmoid %s Backward before Forward", l.name))
	}
	y := l.cacheOutput
	l.cacheOutput = nil
	out := gradOut.Clone()
	od, yd := out.Data(), y.Data()
	for i := range od {
		od[i] *= yd[i] * (1 - yd[i])
	}
	return out
}

// Dense is a fully connected layer mapping [N, In] → [N, Out] with
// y = xW + b. The batch axis is native: the whole batch is one matrix
// product (no per-sample loop in the contraction), and each row of the
// result is bit-identical to a batch-of-1 call on that row. It has no
// float32 path, which makes it the layer SetPrecision(F32) must refuse.
type Dense struct {
	In, Out int

	weight *Param // [In, Out]
	bias   *Param // [Out]

	cacheInput *tensor.Tensor
	name       string
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
	d.cacheInput = x.Clone()
	y := tensor.New(x.Dim(0), d.Out)
	denseForward(x.Dim(0), d.In, d.Out, x.Data(), d.weight.Value.Data(), d.bias.Value.Data(), y.Data())
	return y
}

// denseForward computes y = xW + b: one panel product over the whole
// batch, then the bias added row by row.
func denseForward(n, in, out int, xd, wd, bd, yd []float64) {
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

// XavierUniform draws weights from U(-a, a) with a = sqrt(6/(fanIn+fanOut)),
// the Glorot initialization suited to symmetric activations.
func XavierUniform(g *tensor.RNG, fanIn, fanOut int, shape ...int) *tensor.Tensor {
	a := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return tensor.Uniform(g, -a, a, shape...)
}

// FlattenGrads serializes all parameter gradients into one flat vector.
func FlattenGrads(m Layer) []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.Grad.Data()...)
	}
	return out
}

// UnflattenGrads loads a flat gradient vector back into Param.Grad.
func UnflattenGrads(m Layer, flat []float64) error {
	off := 0
	for _, p := range m.Params() {
		n := p.Grad.Size()
		if off+n > len(flat) {
			return fmt.Errorf("nn: UnflattenGrads vector too short (%d)", len(flat))
		}
		copy(p.Grad.Data(), flat[off:off+n])
		off += n
	}
	if off != len(flat) {
		return fmt.Errorf("nn: UnflattenGrads vector length %d, model has %d gradient entries", len(flat), off)
	}
	return nil
}
