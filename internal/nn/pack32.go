package nn

import (
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
func (p *pack32) get(w, b *tensor.Tensor) ([]float32, []float32) {
	if p.ok.Load() {
		return p.w, p.b
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ok.Load() {
		wd, bd := w.Data(), b.Data()
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

// pin32 is setPrecision32 for the parameterised layers: it returns the
// layer's new (f32on, f32arena). Pinning packs the weights at once
// (once per Engine — clones share the pack), so serving never pays the
// narrowing on a request path.
func pin32(on bool, a *Arena, p *pack32, w, b *Param) (bool, *Arena) {
	if !on {
		return false, nil
	}
	p.get(w.Value, b.Value)
	return true, a
}

// invalidate drops the cached pack; the next get re-narrows.
func (p *pack32) invalidate() { p.ok.Store(false) }

// packInvalidator is implemented by layers caching derived forms of
// their weights.
type packInvalidator interface{ invalidatePack() }

// invalidatePacks walks a model and drops every cached weight pack —
// called by the parameter-mutation paths so stale float32 panels can
// never outlive a weight swap.
func invalidatePacks(m Layer) {
	if s, ok := m.(*Sequential); ok {
		for _, l := range s.layers {
			invalidatePacks(l)
		}
		return
	}
	if p, ok := m.(packInvalidator); ok {
		p.invalidatePack()
	}
}
