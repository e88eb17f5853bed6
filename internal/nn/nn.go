// Package nn implements the neural-network layers used by the paper's
// per-subdomain CNN: 2-D convolutions (with the padding variants of
// §III), transpose convolutions, the leaky-ReLU activation, and a
// Sequential container. Backward passes are hand-derived and verified
// against finite differences in the tests.
//
// The layer protocol is layer-wise reverse-mode differentiation:
// Forward caches whatever the layer needs, Backward consumes the
// gradient with respect to the layer's output and returns the gradient
// with respect to its input, accumulating parameter gradients into
// Param.Grad along the way.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zero gradient of matching shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad resets the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network.
type Layer interface {
	// Name identifies the layer for diagnostics and checkpoints.
	Name() string
	// Forward computes the layer output for x, caching what Backward
	// needs. A layer is single-flight: call Backward before the next
	// Forward.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating dL/d(param) into the layer's Params.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	layers []Layer
	// f32 is non-nil when the network is pinned to the float32 compute
	// path (SetPrecision); Forward then runs the fused f32 chain.
	f32 *seqF32
}

// NewSequential builds a container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }

// Layers returns the contained layers in order.
func (s *Sequential) Layers() []Layer { return s.layers }

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.layers = append(s.layers, l) }

// Forward implements Layer by chaining the contained layers. When the
// network is pinned to F32 (SetPrecision), the whole chain runs fused
// on float32 — one narrowing at the input, one widening at the output
// — which is bit-identical to running the pinned layers one by one
// (widening is exact, so the per-layer f64 boundaries round-trip).
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	if s.f32 != nil {
		mark := s.f32.arena.Mark()
		out := s.forwardChain32(x)
		y := newFromAct(out)
		tensor.Widen64(y.Data(), out.d)
		s.f32.arena.Release(mark)
		return y
	}
	for _, l := range s.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer by back-propagating in reverse order. A
// network pinned to F32 is forward-only and panics.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if s.f32 != nil {
		panicF32Backward("Sequential")
	}
	for i := len(s.layers) - 1; i >= 0; i-- {
		gradOut = s.layers[i].Backward(gradOut)
	}
	return gradOut
}

// BackwardParams is Backward for callers that only want the parameter
// gradients — the training loops, which never read dL/d(input). Every
// Param.Grad ends up bit-identical to Backward's; the one thing skipped
// is the first layer's input gradient when that layer is a Conv2D
// (whose dW and dB do not depend on it). Any other first layer runs
// its ordinary Backward.
func (s *Sequential) BackwardParams(gradOut *tensor.Tensor) {
	if s.f32 != nil {
		panicF32Backward("Sequential")
	}
	for i := len(s.layers) - 1; i >= 0; i-- {
		if c, ok := s.layers[i].(*Conv2D); i == 0 && ok {
			c.backwardParams(gradOut)
			return
		}
		gradOut = s.layers[i].Backward(gradOut)
	}
}

// Params implements Layer by concatenating the layers' parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads resets all parameter gradients of the model.
func ZeroGrads(m Layer) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm over all parameter gradients.
func GradNorm(m Layer) float64 {
	s := 0.0
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data() {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so the global norm is at most
// maxNorm, returning the pre-clip norm.
func ClipGradNorm(m Layer, maxNorm float64) float64 {
	n := GradNorm(m)
	if n > maxNorm && n > 0 {
		scale := maxNorm / n
		for _, p := range m.Params() {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return n
}

// StateDict extracts a name → tensor snapshot of all parameters.
// Duplicate names are disambiguated with an index suffix.
func StateDict(m Layer) map[string]*tensor.Tensor {
	d := make(map[string]*tensor.Tensor)
	for i, p := range m.Params() {
		key := fmt.Sprintf("%03d.%s", i, p.Name)
		d[key] = p.Value.Clone()
	}
	return d
}

// LoadStateDict copies a snapshot produced by StateDict back into the
// model. It fails if any parameter is missing or shaped differently.
func LoadStateDict(m Layer, d map[string]*tensor.Tensor) error {
	for i, p := range m.Params() {
		key := fmt.Sprintf("%03d.%s", i, p.Name)
		src, ok := d[key]
		if !ok {
			return fmt.Errorf("nn: state dict missing parameter %q", key)
		}
		if !src.SameShape(p.Value) {
			return fmt.Errorf("nn: state dict parameter %q shape %v, model needs %v", key, src.Shape(), p.Value.Shape())
		}
		p.Value.CopyFrom(src)
	}
	invalidatePacks(m)
	return nil
}

// FlattenParams serializes all parameter values into one flat vector,
// the representation used when averaging weights across ranks in the
// data-parallel baseline.
func FlattenParams(m Layer) []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// UnflattenParams loads a flat vector produced by FlattenParams back
// into the model's parameters.
func UnflattenParams(m Layer, flat []float64) error {
	off := 0
	for _, p := range m.Params() {
		n := p.Value.Size()
		if off+n > len(flat) {
			return fmt.Errorf("nn: UnflattenParams vector too short (%d), need more than %d", len(flat), off+n)
		}
		copy(p.Value.Data(), flat[off:off+n])
		off += n
	}
	if off != len(flat) {
		return fmt.Errorf("nn: UnflattenParams vector length %d, model has %d parameters", len(flat), off)
	}
	invalidatePacks(m)
	return nil
}
