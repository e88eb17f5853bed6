package core

import (
	"context"
	"sync/atomic"

	"repro/internal/tensor"
)

// Batcher is kept for the end-to-end benchmark module (bench/), which
// still times Predict through it. It batches nothing: Predict is
// Engine.Predict plus a count of served requests, Stats reports one
// batch per request, and Close has nothing to release. Call
// Engine.Predict directly instead.
type Batcher struct {
	eng      *Engine
	requests atomic.Int64
}

// NewBatcher wraps the engine; it never fails.
func NewBatcher(eng *Engine) (*Batcher, error) { return &Batcher{eng: eng}, nil }

// Predict is Engine.Predict, counting each request it serves.
func (b *Batcher) Predict(ctx context.Context, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	frame, err := b.eng.Predict(ctx, states...)
	if err == nil {
		b.requests.Add(1)
	}
	return frame, err
}

// Close returns nil: there is no goroutine or queue to release.
func (b *Batcher) Close() error { return nil }

// Stats reports the served requests, each as a batch of its own.
func (b *Batcher) Stats() BatcherStats { n := b.requests.Load(); return BatcherStats{n, n} }

// BatcherStats counts served requests and the batches they formed.
type BatcherStats struct{ Requests, Batches int64 }

// MeanFill returns the average requests per batch (0 before any).
func (s BatcherStats) MeanFill() float64 { return float64(s.Requests) / max(float64(s.Batches), 1) }
