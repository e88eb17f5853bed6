package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LeakyReLU is the paper's activation (Eq. 2): σ(x) = x for x ≥ 0 and
// εx for x < 0, with a constant ε (the paper uses ε = 0.01).
//
// Backward only needs the sign of the input, which equals the sign of
// the output, so Forward records a byte mask of the negative lanes in
// a persistent layer-owned buffer instead of cloning the input: one
// allocation (the output) and one fused pass per call, which matters
// because the activation sits between every pair of convolutions on
// the rollout hot path.
type LeakyReLU struct {
	Epsilon   float64
	negMask   []uint8 // 1 where the last input was negative
	haveCache bool
	name      string
}

// NewLeakyReLU builds the activation with the given negative slope.
func NewLeakyReLU(name string, epsilon float64) *LeakyReLU {
	if epsilon < 0 || epsilon >= 1 {
		panic(fmt.Sprintf("nn: LeakyReLU epsilon %g outside [0,1)", epsilon))
	}
	return &LeakyReLU{Epsilon: epsilon, name: name}
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return l.name }

// Params implements Layer (no trainable parameters).
func (l *LeakyReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	if cap(l.negMask) < x.Size() {
		l.negMask = make([]uint8, x.Size())
	}
	mask := l.negMask[:x.Size()]
	y := tensor.New(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	// Branch-free select: the sign bit picks the slope, so the loop
	// runs at streaming speed regardless of how the signs are mixed
	// (a sign-conditional branch mispredicts ~50% on activations).
	// −0.0 therefore lands on the ε side; its forward value is
	// unchanged (ε·−0 = −0) and Backward documents the subgradient
	// convention.
	scale := [2]float64{1, l.Epsilon}
	for i, v := range xd {
		neg := uint8(math.Float64bits(v) >> 63)
		mask[i] = neg
		yd[i] = v * scale[neg&1]
	}
	l.haveCache = true
	return y
}

// Backward implements Layer. The subgradient at zero follows the
// sign-bit convention of the mask: 1 at +0 and ε at −0 (the paper
// notes the choice at the kink is immaterial in practice; PyTorch,
// for comparison, uses ε at both zeros).
func (l *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !l.haveCache {
		panic(fmt.Sprintf("nn: LeakyReLU %s Backward before Forward", l.name))
	}
	l.haveCache = false
	out := gradOut.Clone()
	od, mask := out.Data(), l.negMask[:gradOut.Size()]
	for i := range od {
		if mask[i] != 0 {
			od[i] *= l.Epsilon
		}
	}
	return out
}

// setPrecision32 implements layer32 (stateless).
func (l *LeakyReLU) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32 with the same branch-free sign-bit
// select as the float64 Forward.
func (l *LeakyReLU) forward32(x act32, a *Arena) act32 {
	l.haveCache = false
	yd := a.Alloc32(len(x.d))
	scale := [2]float32{1, float32(l.Epsilon)}
	for i, v := range x.d {
		yd[i] = v * scale[math.Float32bits(v)>>31]
	}
	y := x
	y.d = yd
	return y
}
