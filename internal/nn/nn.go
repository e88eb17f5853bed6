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
	"slices"

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
// Every entry point runs one chain (chain.go) at the pinned width
// (SetPrecision): Forward opens a bracket on the network's arena that
// holds every activation, and Backward consumes those activations and
// releases it (DESIGN.md §3).
type Sequential struct {
	layers []Layer
	prec   Precision
	arena  *Arena
	mark   ArenaMark // where the open forward's bracket starts
	open   bool      // a forward's activations are in the arena
	widest int       // the open forward's longest activation
	params []*Param  // Params, built on first use
}

// NewSequential builds a container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers, arena: NewArena()}
}

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }

// Layers returns the contained layers in order.
func (s *Sequential) Layers() []Layer { return s.layers }

// Add appends a layer.
func (s *Sequential) Add(l Layer) {
	s.layers = append(s.layers, l)
	s.params = nil
}

// SetScratch replaces the arena the chain runs in. The old arena's
// memory goes with it, so a model that is done training drops its
// activations this way.
func (s *Sequential) SetScratch(a *Arena) { s.arena, s.open = a, false }

// Forward implements Layer: the chain at the pinned width, its final
// activation copied into a fresh tensor (callers keep outputs across
// forwards). The float32 chain narrows x once on entry and widens once
// at the output, which is exact.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor { return s.ForwardInto(x, nil) }

// ForwardInto is Forward writing the result into dst, which must
// already have the network's output shape for this input (nil means a
// fresh tensor), and returns it. Once the arena is warm it allocates
// nothing at either width: the steady state of the rollout loop.
func (s *Sequential) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	if s.prec == F32 {
		return output(dst, forward[float32](s, x))
	}
	return output(dst, forward[float64](s, x))
}

// Backward implements Layer by back-propagating the forward's
// activations in reverse order. A network pinned to F32 is forward-only
// and panics.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return s.backward(gradOut, false)
}

// BackwardParams is Backward for callers that only want the parameter
// gradients — the training loops, which never read dL/d(input). Every
// Param.Grad ends up bit-identical to Backward's; the one thing skipped
// is the first layer's input gradient when that layer is a convolution
// (whose dW and dB do not depend on it). Any other first layer runs its
// ordinary backward.
func (s *Sequential) BackwardParams(gradOut *tensor.Tensor) { s.backward(gradOut, true) }

// Params implements Layer by concatenating the layers' parameters. The
// list is built once (Add resets it), so the per-step ZeroGrads and
// optimizer walks allocate nothing.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		for _, l := range s.layers {
			s.params = append(s.params, l.Params()...)
		}
		s.params = slices.Clip(s.params)
	}
	return s.params
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
