package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file holds the float32 inference paths (layer32
// implementations, DESIGN.md §13) of the non-convolution layers; the
// convolution ones live in conv32.go / convtranspose32.go.

// --- Dense ---

// setPrecision32 implements layer32.
func (d *Dense) setPrecision32(on bool, a *Arena) error {
	d.f32on = on
	if on {
		d.f32arena = a
		d.pack.get(d.weight.Value, d.bias.Value)
	} else {
		d.f32arena = nil
	}
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
// data slice passes through untouched. The original shape is kept for
// the (float64) Backward without allocating at steady state.
func (f *Flatten) forward32(x act32, _ *Arena) act32 {
	if x.rank == 2 {
		f.cacheShape = append(f.cacheShape[:0], x.n, x.c)
		return x
	}
	f.cacheShape = append(f.cacheShape[:0], x.n, x.c, x.h, x.w)
	return act32{n: x.n, c: x.c * x.h * x.w, h: 1, w: 1, rank: 2, d: x.d}
}

// --- LeakyReLU ---

// setPrecision32 implements layer32 (stateless).
func (l *LeakyReLU) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32 with the same branch-free sign-bit
// select as the float64 Forward. It fills the same negMask, so the
// float64 Backward works unchanged after an f32 forward.
func (l *LeakyReLU) forward32(x act32, a *Arena) act32 {
	n := len(x.d)
	if cap(l.negMask) < n {
		l.negMask = make([]uint8, n)
	}
	mask := l.negMask[:n]
	yd := a.Alloc32(n)
	scale := [2]float32{1, float32(l.Epsilon)}
	for i, v := range x.d {
		neg := uint8(math.Float32bits(v) >> 31)
		mask[i] = neg
		yd[i] = v * scale[neg&1]
	}
	l.haveCache = true
	y := x
	y.d = yd
	return y
}

// --- ReLU ---

// setPrecision32 implements layer32 (stateless).
func (l *ReLU) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32, filling the same negMask as the
// float64 Forward (same v < 0 convention, so −0.0 passes through).
func (l *ReLU) forward32(x act32, a *Arena) act32 {
	n := len(x.d)
	if cap(l.negMask) < n {
		l.negMask = make([]uint8, n)
	}
	mask := l.negMask[:n]
	yd := a.Alloc32(n)
	for i, v := range x.d {
		if v < 0 {
			yd[i] = 0
			mask[i] = 1
		} else {
			yd[i] = v
			mask[i] = 0
		}
	}
	l.haveCache = true
	y := x
	y.d = yd
	return y
}

// --- Tanh ---

// setPrecision32 implements layer32 (stateless).
func (l *Tanh) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32. The transcendental runs in float64 and
// rounds once to float32; Backward needs the output, so the f32 result
// is widened into the regular cache (an allocation — Tanh is ablation
// material, not rollout hot path).
func (l *Tanh) forward32(x act32, a *Arena) act32 {
	yd := a.Alloc32(len(x.d))
	cache := tensor.New(len(x.d))
	cd := cache.Data()
	for i, v := range x.d {
		yv := float32(math.Tanh(float64(v)))
		yd[i] = yv
		cd[i] = float64(yv)
	}
	l.cacheOutput = cache
	y := x
	y.d = yd
	return y
}

// --- Sigmoid ---

// setPrecision32 implements layer32 (stateless).
func (l *Sigmoid) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32 (see Tanh.forward32).
func (l *Sigmoid) forward32(x act32, a *Arena) act32 {
	yd := a.Alloc32(len(x.d))
	cache := tensor.New(len(x.d))
	cd := cache.Data()
	for i, v := range x.d {
		yv := float32(1 / (1 + math.Exp(-float64(v))))
		yd[i] = yv
		cd[i] = float64(yv)
	}
	l.cacheOutput = cache
	y := x
	y.d = yd
	return y
}

// --- Identity ---

// setPrecision32 implements layer32 (stateless).
func (l *Identity) setPrecision32(bool, *Arena) error { return nil }

// forward32 implements layer32: pass-through, no copy.
func (l *Identity) forward32(x act32, _ *Arena) act32 { return x }
