// Package autodiff implements a small scalar reverse-mode automatic
// differentiation engine (a dynamic tape, PyTorch-style but per
// scalar). The repository's layers use hand-derived batched backward
// passes for speed; this package provides an independent oracle to
// cross-validate those derivations (nn/crosscheck_test.go — no binary
// imports it), and a readable reference for how reverse-mode AD orders
// its sweeps.
package autodiff

import "math"

// Tape records operations so gradients can be propagated backwards.
//
//repolint:allow reach -- the scalar-tape oracle of nn TestConvGradCrossCheckAutodiff and TestDenseGradCrossCheckAutodiff
type Tape struct {
	nodes []node
}

//repolint:allow reach -- the scalar-tape oracle of nn TestConvGradCrossCheckAutodiff and TestDenseGradCrossCheckAutodiff
type node struct {
	// parents are tape indices of the inputs (-1 = none).
	p1, p2 int
	// d1, d2 are the local partial derivatives ∂out/∂p1, ∂out/∂p2.
	d1, d2 float64
	value  float64
}

// Var is a scalar variable living on a tape.
//
//repolint:allow reach -- the scalar-tape oracle of nn TestConvGradCrossCheckAutodiff and TestDenseGradCrossCheckAutodiff
type Var struct {
	tape *Tape
	idx  int
}

// NewTape creates an empty tape.
//
//repolint:allow reach -- the scalar-tape oracle of nn TestConvGradCrossCheckAutodiff and TestDenseGradCrossCheckAutodiff
func NewTape() *Tape { return &Tape{} }

// Len returns the number of recorded nodes.
func (t *Tape) Len() int { return len(t.nodes) }

// Value creates a leaf variable with the given value.
func (t *Tape) Value(v float64) Var {
	t.nodes = append(t.nodes, node{p1: -1, p2: -1, value: v})
	return Var{tape: t, idx: len(t.nodes) - 1}
}

// Value returns the scalar held by the variable.
func (v Var) Value() float64 { return v.tape.nodes[v.idx].value }

// Index returns the variable's position on the tape — the index into
// the slice returned by Tape.Gradients.
func (v Var) Index() int { return v.idx }

func (t *Tape) binary(a, b Var, val, da, db float64) Var {
	if a.tape != t || b.tape != t {
		panic("autodiff: mixing variables from different tapes")
	}
	t.nodes = append(t.nodes, node{p1: a.idx, p2: b.idx, d1: da, d2: db, value: val})
	return Var{tape: t, idx: len(t.nodes) - 1}
}

func (t *Tape) unary(a Var, val, da float64) Var {
	if a.tape != t {
		panic("autodiff: mixing variables from different tapes")
	}
	t.nodes = append(t.nodes, node{p1: a.idx, p2: -1, d1: da, value: val})
	return Var{tape: t, idx: len(t.nodes) - 1}
}

// Add returns a + b.
func (a Var) Add(b Var) Var {
	return a.tape.binary(a, b, a.Value()+b.Value(), 1, 1)
}

// Sub returns a - b.
func (a Var) Sub(b Var) Var {
	return a.tape.binary(a, b, a.Value()-b.Value(), 1, -1)
}

// Mul returns a · b.
func (a Var) Mul(b Var) Var {
	return a.tape.binary(a, b, a.Value()*b.Value(), b.Value(), a.Value())
}

// Div returns a / b.
func (a Var) Div(b Var) Var {
	bv := b.Value()
	return a.tape.binary(a, b, a.Value()/bv, 1/bv, -a.Value()/(bv*bv))
}

// AddConst returns a + c.
func (a Var) AddConst(c float64) Var { return a.tape.unary(a, a.Value()+c, 1) }

// MulConst returns c · a.
func (a Var) MulConst(c float64) Var { return a.tape.unary(a, c*a.Value(), c) }

// Neg returns -a.
func (a Var) Neg() Var { return a.MulConst(-1) }

// Square returns a².
func (a Var) Square() Var { return a.tape.unary(a, a.Value()*a.Value(), 2*a.Value()) }

// Abs returns |a| (subgradient 0 at 0).
func (a Var) Abs() Var {
	v := a.Value()
	d := 0.0
	switch {
	case v > 0:
		d = 1
	case v < 0:
		d = -1
	}
	return a.tape.unary(a, math.Abs(v), d)
}

// Exp returns eᵃ.
func (a Var) Exp() Var {
	e := math.Exp(a.Value())
	return a.tape.unary(a, e, e)
}

// Log returns ln(a).
func (a Var) Log() Var {
	return a.tape.unary(a, math.Log(a.Value()), 1/a.Value())
}

// Sqrt returns √a.
func (a Var) Sqrt() Var {
	s := math.Sqrt(a.Value())
	return a.tape.unary(a, s, 0.5/s)
}

// Tanh returns tanh(a).
func (a Var) Tanh() Var {
	th := math.Tanh(a.Value())
	return a.tape.unary(a, th, 1-th*th)
}

// Sigmoid returns 1/(1+e⁻ᵃ).
func (a Var) Sigmoid() Var {
	s := 1 / (1 + math.Exp(-a.Value()))
	return a.tape.unary(a, s, s*(1-s))
}

// LeakyReLU returns a for a ≥ 0 and ε·a otherwise (paper Eq. 2).
func (a Var) LeakyReLU(eps float64) Var {
	v := a.Value()
	if v >= 0 {
		return a.tape.unary(a, v, 1)
	}
	return a.tape.unary(a, eps*v, eps)
}

// ReLU returns max(0, a) (paper Eq. 1).
func (a Var) ReLU() Var {
	v := a.Value()
	if v >= 0 {
		return a.tape.unary(a, v, 1)
	}
	return a.tape.unary(a, 0, 0)
}

// Max returns max(a, b) with the subgradient flowing to the larger
// input (ties: a).
func (a Var) Max(b Var) Var {
	if a.Value() >= b.Value() {
		return a.tape.binary(a, b, a.Value(), 1, 0)
	}
	return a.tape.binary(a, b, b.Value(), 0, 1)
}

// Sum folds a slice of variables with Add.
//
//repolint:allow reach -- the scalar-tape oracle of nn TestConvGradCrossCheckAutodiff and TestDenseGradCrossCheckAutodiff
func Sum(vs []Var) Var {
	if len(vs) == 0 {
		panic("autodiff: Sum of no variables")
	}
	acc := vs[0]
	for _, v := range vs[1:] {
		acc = acc.Add(v)
	}
	return acc
}

// Gradients runs the reverse sweep from the given output and returns
// ∂out/∂node for every node on the tape, indexable by Var.
func (t *Tape) Gradients(out Var) []float64 {
	if out.tape != t {
		panic("autodiff: output from a different tape")
	}
	adj := make([]float64, len(t.nodes))
	adj[out.idx] = 1
	for i := out.idx; i >= 0; i-- {
		n := t.nodes[i]
		if adj[i] == 0 {
			continue
		}
		if n.p1 >= 0 {
			adj[n.p1] += n.d1 * adj[i]
		}
		if n.p2 >= 0 {
			adj[n.p2] += n.d2 * adj[i]
		}
	}
	return adj
}
