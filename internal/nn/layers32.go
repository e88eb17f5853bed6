package nn

import (
	"fmt"
	"math"
)

// This file holds the float32 inference paths (layer32
// implementations, DESIGN.md §13) of the non-convolution layers; the
// convolution ones live in conv32.go / convtranspose32.go.

// --- Dense ---

// setPrecision32 implements layer32.
func (d *Dense) setPrecision32(on bool, a *Arena) error {
	d.f32on, d.f32arena = pin32(on, a, d.pack, d.weight, d.bias)
	return nil
}

// invalidatePack implements packInvalidator.
func (d *Dense) invalidatePack() { d.pack.invalidate() }

// forward32 implements layer32: the shared denseForward on float32.
func (d *Dense) forward32(x act32, a *Arena) act32 {
	if x.rank != 2 || x.c != d.In {
		panic(fmt.Sprintf("nn: Dense %s f32 path needs [N,%d] input, got [%d,%d] rank %d", d.name, d.In, x.n, x.c, x.rank))
	}
	d.cacheInput = nil // a float64 Backward must not pair with this forward
	wd, bd := d.pack.get(d.weight.Value, d.bias.Value)
	yd := a.Alloc32(x.n * d.Out)
	denseForward(x.n, d.In, d.Out, x.d, wd, bd, yd)
	return act32{n: x.n, c: d.Out, h: 1, w: 1, rank: 2, d: yd}
}

// --- Flatten ---

// setPrecision32 implements layer32 (stateless — the f32 path only
// rewrites the shape header).
func (f *Flatten) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32: flattening is a header rewrite, the
// data slice passes through untouched.
func (f *Flatten) forward32(x act32, _ *Arena) act32 {
	f.cacheShape = nil
	if x.rank == 2 {
		return x
	}
	return act32{n: x.n, c: x.c * x.h * x.w, h: 1, w: 1, rank: 2, d: x.d}
}

// --- LeakyReLU ---

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

// --- ReLU ---

// setPrecision32 implements layer32 (stateless).
func (l *ReLU) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32 (same v < 0 convention as the float64
// Forward, so −0.0 passes through).
func (l *ReLU) forward32(x act32, a *Arena) act32 {
	l.haveCache = false
	yd := a.Alloc32(len(x.d))
	for i, v := range x.d {
		if v < 0 {
			v = 0
		}
		yd[i] = v
	}
	y := x
	y.d = yd
	return y
}

// --- Tanh ---

// setPrecision32 implements layer32 (stateless).
func (l *Tanh) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32. The transcendental runs in float64 and
// rounds once to float32.
func (l *Tanh) forward32(x act32, a *Arena) act32 {
	l.cacheOutput = nil
	yd := a.Alloc32(len(x.d))
	for i, v := range x.d {
		yd[i] = float32(math.Tanh(float64(v)))
	}
	y := x
	y.d = yd
	return y
}

// --- Sigmoid ---

// setPrecision32 implements layer32 (stateless).
func (l *Sigmoid) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32 (see Tanh.forward32).
func (l *Sigmoid) forward32(x act32, a *Arena) act32 {
	l.cacheOutput = nil
	yd := a.Alloc32(len(x.d))
	for i, v := range x.d {
		yd[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	y := x
	y.d = yd
	return y
}

// --- Identity ---

// setPrecision32 implements layer32 (stateless).
func (l *Identity) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32: pass-through, no copy.
func (l *Identity) forward32(x act32, _ *Arena) act32 { return x }
