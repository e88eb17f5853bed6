// Package opt implements the first-order optimizers discussed in §II
// of the paper: plain stochastic gradient descent, SGD with momentum
// (Eq. 3), RMSProp, and ADAM (Eq. 3–6), which the paper selects after
// "trying different available options". Learning-rate schedules and
// gradient clipping round out the training toolkit.
package opt

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Optimizer updates a model's parameters from their accumulated
// gradients. Step consumes the gradients (the caller zeroes them
// afterwards via nn.ZeroGrads).
type Optimizer interface {
	// Step applies one parameter update using the current gradients.
	Step(m nn.Layer)
	// SetLR overrides the base learning rate (used by schedules).
	SetLR(lr float64)
	// LR reports the current base learning rate.
	LR() float64
	// Name identifies the optimizer for logs and tables.
	Name() string
}

// SGD is plain stochastic gradient descent: W ← W - η·dL/dW.
type SGD struct {
	lr float64
}

// NewSGD builds a plain SGD optimizer.
func NewSGD(lr float64) *SGD {
	checkLR(lr)
	return &SGD{lr: lr}
}

// Name implements Optimizer.
func (o *SGD) Name() string { return "sgd" }

// LR implements Optimizer.
func (o *SGD) LR() float64 { return o.lr }

// SetLR implements Optimizer.
func (o *SGD) SetLR(lr float64) { o.lr = lr }

// Step implements Optimizer.
func (o *SGD) Step(m nn.Layer) {
	for _, p := range m.Params() {
		p.Value.AddScaled(-o.lr, p.Grad)
	}
}

// Momentum is SGD with classical momentum (paper Eq. 3):
// m ← ρ·m + (1-ρ)·dL/dW;  W ← W - η·m.
type Momentum struct {
	lr  float64
	rho float64
	vel map[*nn.Param][]float64
}

// NewMomentum builds a momentum optimizer; the paper's Eq. 3 uses a
// fraction ρ ∈ [0,1) of the previous search direction.
func NewMomentum(lr, rho float64) *Momentum {
	checkLR(lr)
	if rho < 0 || rho >= 1 {
		panic(fmt.Sprintf("opt: momentum rho %g outside [0,1)", rho))
	}
	return &Momentum{lr: lr, rho: rho, vel: make(map[*nn.Param][]float64)}
}

// Name implements Optimizer.
func (o *Momentum) Name() string { return "momentum" }

// LR implements Optimizer.
func (o *Momentum) LR() float64 { return o.lr }

// SetLR implements Optimizer.
func (o *Momentum) SetLR(lr float64) { o.lr = lr }

// Step implements Optimizer.
func (o *Momentum) Step(m nn.Layer) {
	for _, p := range m.Params() {
		v, ok := o.vel[p]
		if !ok {
			v = make([]float64, p.Value.Size())
			o.vel[p] = v
		}
		g := p.Grad.Data()
		w := p.Value.Data()
		for i := range v {
			v[i] = o.rho*v[i] + (1-o.rho)*g[i]
			w[i] -= o.lr * v[i]
		}
	}
}

// RMSProp scales each coordinate by a running RMS of its gradient.
type RMSProp struct {
	lr    float64
	decay float64
	eps   float64
	sq    map[*nn.Param][]float64
}

// NewRMSProp builds an RMSProp optimizer with the conventional
// decay 0.9 and smoothing 1e-8 unless overridden.
func NewRMSProp(lr, decay, eps float64) *RMSProp {
	checkLR(lr)
	if decay <= 0 || decay >= 1 {
		panic(fmt.Sprintf("opt: RMSProp decay %g outside (0,1)", decay))
	}
	return &RMSProp{lr: lr, decay: decay, eps: eps, sq: make(map[*nn.Param][]float64)}
}

// Name implements Optimizer.
func (o *RMSProp) Name() string { return "rmsprop" }

// LR implements Optimizer.
func (o *RMSProp) LR() float64 { return o.lr }

// SetLR implements Optimizer.
func (o *RMSProp) SetLR(lr float64) { o.lr = lr }

// Step implements Optimizer.
func (o *RMSProp) Step(m nn.Layer) {
	for _, p := range m.Params() {
		s, ok := o.sq[p]
		if !ok {
			s = make([]float64, p.Value.Size())
			o.sq[p] = s
		}
		g := p.Grad.Data()
		w := p.Value.Data()
		for i := range s {
			s[i] = o.decay*s[i] + (1-o.decay)*g[i]*g[i]
			w[i] -= o.lr * g[i] / (math.Sqrt(s[i]) + o.eps)
		}
	}
}

// Adam implements the paper's Eq. (3)–(6): first and second moments
// with exponential decay ρ1, ρ2, bias correction 1/(1-ρᵗ), and the
// update W ← W - η·m̂/(√v̂ + ϵ).
type Adam struct {
	lr   float64
	rho1 float64
	rho2 float64
	eps  float64
	t    int
	m    map[*nn.Param][]float64
	v    map[*nn.Param][]float64
}

// NewAdam builds an ADAM optimizer with explicit hyper-parameters.
func NewAdam(lr, rho1, rho2, eps float64) *Adam {
	checkLR(lr)
	if rho1 < 0 || rho1 >= 1 || rho2 < 0 || rho2 >= 1 {
		panic(fmt.Sprintf("opt: Adam decay rates (%g, %g) outside [0,1)", rho1, rho2))
	}
	return &Adam{
		lr: lr, rho1: rho1, rho2: rho2, eps: eps,
		m: make(map[*nn.Param][]float64),
		v: make(map[*nn.Param][]float64),
	}
}

// NewAdamDefault uses the paper's suggested global learning rate
// η = 0.01 and smoothing ϵ = 1e-8 with the standard decay rates
// ρ1 = 0.9, ρ2 = 0.999.
func NewAdamDefault() *Adam { return NewAdam(0.01, 0.9, 0.999, 1e-8) }

// Name implements Optimizer.
func (o *Adam) Name() string { return "adam" }

// LR implements Optimizer.
func (o *Adam) LR() float64 { return o.lr }

// SetLR implements Optimizer.
func (o *Adam) SetLR(lr float64) { o.lr = lr }

// Step implements Optimizer.
func (o *Adam) Step(model nn.Layer) {
	o.t++
	c1 := 1 - math.Pow(o.rho1, float64(o.t))
	c2 := 1 - math.Pow(o.rho2, float64(o.t))
	for _, p := range model.Params() {
		mBuf, ok := o.m[p]
		if !ok {
			mBuf = make([]float64, p.Value.Size())
			o.m[p] = mBuf
			o.v[p] = make([]float64, p.Value.Size())
		}
		vBuf := o.v[p]
		g := p.Grad.Data()
		w := p.Value.Data()
		for i := range mBuf {
			mBuf[i] = o.rho1*mBuf[i] + (1-o.rho1)*g[i]
			vBuf[i] = o.rho2*vBuf[i] + (1-o.rho2)*g[i]*g[i]
			mHat := mBuf[i] / c1
			vHat := vBuf[i] / c2
			w[i] -= o.lr * mHat / (math.Sqrt(vHat) + o.eps)
		}
	}
}

func checkLR(lr float64) {
	if lr <= 0 || math.IsNaN(lr) || math.IsInf(lr, 0) {
		panic(fmt.Sprintf("opt: invalid learning rate %g", lr))
	}
}
