package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LeakyReLU is the paper's activation (Eq. 2): σ(x) = x for x ≥ 0 and
// εx for x < 0, with a constant ε (the paper uses ε = 0.01).
//
// Backward only needs the sign of the input, and the output keeps it
// for every ε in [0, 1): v·s with s ≥ 0 keeps v's sign bit, through
// underflow and at ε = 0. So the layer records its output, not a mask
// or a copy of its input — and the chain runs it in place over its
// input, which nothing reads afterwards.
type LeakyReLU struct {
	Epsilon float64
	out     act[float64] // the last float64 forward's output, until Backward
	name    string
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

// Forward implements Layer: leakyStage on a copy of x, which it
// records by reference for Backward.
func (l *LeakyReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	leakyStage(l, view(y))
	return y
}

// leakyStage is LeakyReLU's forward at either width, in place, for
// Forward and for the chain alike. For ε in [0, 1), max(v, ε·v) is the
// activation, bit for bit — ε·v itself below zero, −0 included — and
// it is branch-free, so the loop runs at streaming speed however the
// signs are mixed (a sign-conditional branch mispredicts ~50% on
// activations).
func leakyStage[T tensor.Float](l *LeakyReLU, x act[T]) act[T] {
	eps := T(l.Epsilon)
	for i, v := range x.d {
		x.d[i] = max(v, eps*v)
	}
	keep(&l.out, x)
	return x
}

// Backward implements Layer on a copy of gradOut.
func (l *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	dx := gradOut.Clone()
	l.backward(view(dx))
	return dx
}

// backward is the backward stage, in place on dy: a lane scales by ε
// where the recorded output's sign bit is set. The subgradient at zero
// follows the sign bit: 1 at +0 and ε at −0 (the paper notes the
// choice at the kink is immaterial in practice; PyTorch, for
// comparison, uses ε at both zeros). dy must have the forward output's
// shape.
func (l *LeakyReLU) backward(dy act[float64]) act[float64] {
	y := l.out
	if y.rank == 0 {
		panic(fmt.Sprintf("nn: LeakyReLU %s Backward before Forward", l.name))
	}
	if dy.rank != y.rank || dy.dims != y.dims {
		panic(fmt.Sprintf("nn: LeakyReLU %s backward shape mismatch: forward output %v, gradient %v", l.name, y, dy))
	}
	l.out = act[float64]{}
	scale := [2]float64{1, l.Epsilon}
	for i, v := range y.d {
		dy.d[i] *= scale[math.Float64bits(v)>>63]
	}
	return dy
}
