package nn

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// pack32 caches a layer's weight and bias narrowed to float32 — the
// "PackedWeights" cache of the F32 compute path. The pointer is
// created once per layer and copied by CloneShared, so every clone of
// a network shares one pack: the narrowing runs once per Engine (the
// first pinned clone pays it), not once per call and not once per
// clone. The cache is invalidated only when the master weights are
// mutated (LoadStateDict, CopyParams, UnflattenParams — the
// clone/swap paths); the next get re-narrows.
//
// Concurrency: get is an atomic fast path over a mutex-guarded fill,
// safe for concurrent clones. Invalidation is not synchronized with
// concurrent readers — it happens on the training side, where the
// serving contract (weights are never mutated while clones run)
// already forbids overlap.
type pack32 struct {
	mu   sync.Mutex
	ok   atomic.Bool
	w, b []float32
	// flipIn > 0 marks the weight as a [flipIn, flipOut, K, K]
	// transpose-convolution kernel, packed in the flipped form its
	// forward sweep reads (flipKernel), so the flip too runs once per
	// Engine.
	flipIn, flipOut int
}

// packCount counts actual narrowing passes, exposed so tests can
// assert pack-once-per-Engine behavior.
var packCount atomic.Int64

// PackCount returns the process-wide number of weight-pack narrowing
// passes performed so far. Tests take deltas around Engine
// construction and serving calls.
//
//repolint:allow reach -- the pack-once-per-Engine invariant: nn TestPackCountOncePerPin and core TestEnginePrecisionPackOncePerEngine count passes with it
func PackCount() int64 { return packCount.Load() }

// get returns the packed float32 weight and bias, narrowing them from
// the masters on first use or after an invalidation.
func (p *pack32) get(w, b *Param) ([]float32, []float32) {
	if p.ok.Load() {
		return p.w, p.b
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ok.Load() {
		wd, bd := w.Value.Data(), b.Value.Data()
		if cap(p.w) < len(wd) {
			p.w = make([]float32, len(wd))
		}
		if cap(p.b) < len(bd) {
			p.b = make([]float32, len(bd))
		}
		p.w = p.w[:len(wd)]
		p.b = p.b[:len(bd)]
		tensor.Narrow32(p.w, wd)
		tensor.Narrow32(p.b, bd)
		if p.flipIn > 0 {
			flipKernel(p.w, slices.Clone(p.w), p.flipIn, p.flipOut, len(wd)/(p.flipIn*p.flipOut))
		}
		packCount.Add(1)
		p.ok.Store(true)
	}
	return p.w, p.b
}

// weights returns a convolution's kernel and bias at width T as its
// forward sweep reads them: the float32 pack; or the float64 masters,
// with a transpose convolution's kernel flipped into scratch from a per
// call, so there is nothing to invalidate when the optimizer steps.
func weights[T tensor.Float](p *pack32, w, b *Param, a *Arena) ([]T, []T) {
	if _, ok := any([]T(nil)).([]float32); ok {
		wd, bd := p.get(w, b)
		return any(wd).([]T), any(bd).([]T)
	}
	wd := w.Value.Data()
	if p.flipIn > 0 {
		f := a.f64.alloc(len(wd))
		flipKernel(f, wd, p.flipIn, p.flipOut, len(wd)/(p.flipIn*p.flipOut))
		wd = f
	}
	return any(wd).([]T), any(b.Value.Data()).([]T)
}

// invalidatePacks drops every cached weight pack of a model — called
// by the parameter-mutation paths so stale float32 panels can never
// outlive a weight swap.
func invalidatePacks(m Layer) {
	eachPack([]Layer{m}, func(p *pack32, _, _ *Param) { p.ok.Store(false) })
}

// eachPack calls f on the float32 pack, kernel and bias of every
// convolution in layers, at any depth, and returns an error naming the
// first layer the float32 chain cannot run.
func eachPack(layers []Layer, f func(p *pack32, w, b *Param)) (err error) {
	for i, l := range layers {
		switch l := l.(type) {
		case *Sequential:
			if e := eachPack(l.layers, f); err == nil {
				err = e
			}
		case *Conv2D:
			f(l.pack, l.weight, l.bias)
		case *ConvTranspose2D:
			f(l.pack, l.weight, l.bias)
		case *LeakyReLU:
		default:
			if err == nil {
				err = fmt.Errorf("nn: layer %d (%s) has no float32 path", i, l.Name())
			}
		}
	}
	return err
}
