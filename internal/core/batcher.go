package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Batcher transparently coalesces concurrent Predict calls into
// Engine.PredictBatch micro-batches: callers keep the one-request
// Predict signature, and a batch waits for batchmates only while one
// is known to be on its way (DESIGN.md §9). It takes everything
// already queued and dispatches, unless it is full or there is
// evidence of another request: a caller between entering Predict and
// landing in the queue, or an arrival brought in by yielding the
// processor once. MaxDelay caps any such wait, so a lone caller never
// sleeps it out. Because PredictBatch is bit-identical to per-request
// Predict, coalescing is invisible to callers except in latency and
// throughput.
//
// Per-request isolation is preserved end to end: a request whose
// context is cancelled returns ctx.Err() promptly (before dispatch it
// is dropped from its batch; during compute its caller stops waiting
// while the rest of the batch completes), and a request that fails
// validation gets its own error without poisoning batchmates.
//
// Backpressure: at most queueDepth (4·MaxBatch) requests may be
// queued; beyond that, Predict blocks — interruptibly by its context
// — until the dispatcher catches up. Close stops admission
// (subsequent Predicts fail with ErrBatcherClosed), flushes every
// already-queued request, and returns once the dispatcher has
// delivered them — the drain half of cmd/serve's graceful shutdown.
type Batcher struct {
	eng      *Engine
	maxBatch int
	maxDelay time.Duration
	fillObs  func(time.Duration) // nil = no observer

	queue  chan *batchReq
	closed chan struct{}
	done   chan struct{}
	once   sync.Once

	arriving atomic.Int64 // requests between entering Predict and leaving the queue
	requests atomic.Int64 // requests delivered through batches
	batches  atomic.Int64 // batches dispatched (incl. partial fills)
}

// batchReq is one queued Predict call.
type batchReq struct {
	ctx    context.Context
	states []*tensor.Tensor
	at     time.Time          // when Predict enqueued the request
	res    chan PredictResult // buffered(1); the dispatcher never blocks on delivery
}

// BatcherOption configures a Batcher at construction time.
type BatcherOption func(*Batcher)

// WithMaxBatch caps the micro-batch size (default 8). A full batch
// dispatches immediately without waiting out the delay.
func WithMaxBatch(n int) BatcherOption {
	return func(b *Batcher) { b.maxBatch = n }
}

// WithMaxDelay is the cap on the wait for batchmates that are
// arriving (default 2ms): a batch waits only while a caller is on its
// way to the queue, and never longer than this. 0 dispatches
// greedily: whatever is queued at collection time forms the batch.
func WithMaxDelay(d time.Duration) BatcherOption {
	return func(b *Batcher) { b.maxDelay = d }
}

// WithFillObserver registers a callback invoked once per dispatched
// batch with the batch-fill delay: how long the batch's oldest request
// waited between enqueue and dispatch. The serving front end feeds
// this into the per-model batch-fill histogram on /metrics. The
// callback runs on the dispatcher goroutine, so it must be fast and
// must not call back into the Batcher.
func WithFillObserver(fn func(time.Duration)) BatcherOption {
	return func(b *Batcher) { b.fillObs = fn }
}

// NewBatcher starts a batcher over the engine. Close it to release
// the dispatcher goroutine.
func NewBatcher(eng *Engine, opts ...BatcherOption) (*Batcher, error) {
	b := &Batcher{eng: eng, maxBatch: 8, maxDelay: 2 * time.Millisecond}
	for _, o := range opts {
		o(b)
	}
	if b.maxBatch < 1 {
		return nil, fmt.Errorf("core: non-positive batcher max batch %d", b.maxBatch)
	}
	if b.maxDelay < 0 {
		return nil, fmt.Errorf("core: negative batcher max delay %v", b.maxDelay)
	}
	b.queue = make(chan *batchReq, 4*b.maxBatch)
	b.closed = make(chan struct{})
	b.done = make(chan struct{})
	go b.dispatch()
	return b, nil
}

// Predict submits one request and blocks until its micro-batch has
// been served (or ctx is cancelled, or the batcher is closed). It is
// safe for any number of goroutines; results are bit-identical to
// Engine.Predict.
func (b *Batcher) Predict(ctx context.Context, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &batchReq{ctx: ctx, states: states, at: time.Now(), res: make(chan PredictResult, 1)}
	// The dispatcher lowers the count when it takes req off the queue,
	// so the count never includes a request already in a batch.
	b.arriving.Add(1)
	select {
	case b.queue <- req:
	case <-ctx.Done():
		b.arriving.Add(-1)
		return nil, ctx.Err()
	case <-b.closed:
		b.arriving.Add(-1)
		return nil, fmt.Errorf("core: %w", ErrBatcherClosed)
	}
	select {
	case r := <-req.res:
		return r.Frame, r.Err
	case <-ctx.Done():
		// The batch may still be computing; the result is discarded on
		// delivery (res is buffered, the dispatcher never blocks).
		return nil, ctx.Err()
	case <-b.done:
		// The enqueue raced a concurrent Close: the dispatcher has
		// exited, but the close-time drain may still have served this
		// request — prefer its result if so.
		select {
		case r := <-req.res:
			return r.Frame, r.Err
		default:
			return nil, fmt.Errorf("core: %w", ErrBatcherClosed)
		}
	}
}

// Close stops admitting requests, drains everything already queued
// through final batches, and waits for the dispatcher to exit.
// Closing twice is a no-op.
func (b *Batcher) Close() error {
	b.once.Do(func() { close(b.closed) })
	<-b.done
	return nil
}

// BatcherStats is a snapshot of coalescing behaviour.
type BatcherStats struct {
	Requests int64 // requests delivered through batches
	Batches  int64 // batches dispatched
}

// MeanFill returns the average requests per dispatched batch.
func (s BatcherStats) MeanFill() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// Stats returns a snapshot of the batcher's coalescing counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{Requests: b.requests.Load(), Batches: b.batches.Load()}
}

// dispatch is the single collector/dispatcher goroutine: it forms
// batches (collect) and runs them inline — while a batch computes,
// later arrivals buffer in the queue (the backpressure bound) and form
// the next batch.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		var first *batchReq
		select {
		case first = <-b.queue:
			b.arriving.Add(-1)
		case <-b.closed:
			b.drain()
			return
		}
		b.run(b.collect(first))
	}
}

// collect fills a batch starting from its first request. It takes
// whatever is queued, then dispatches unless the batch is full or a
// batchmate is on its way:
//   - a caller has entered Predict but its request is not yet in the
//     queue (arriving > 0 with the queue drained): block on the queue,
//     maxDelay and close;
//   - one runtime.Gosched brings in a new request: take it and look
//     again. Goroutines woken together (a burst) are runnable but have
//     not run yet, and only the yield lets them reach Predict.
//
// maxDelay caps the blocking wait and its timer is made only when the
// batch blocks, so a lone request dispatches at once and allocates no
// timer. With maxDelay 0 collect takes only what is queued right now.
func (b *Batcher) collect(first *batchReq) []*batchReq {
	batch := append(make([]*batchReq, 0, b.maxBatch), first)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.queue:
			b.arriving.Add(-1)
			batch = append(batch, r)
			continue
		default:
		}
		if b.maxDelay == 0 {
			break
		}
		if b.arriving.Load() == 0 {
			runtime.Gosched()
			if len(b.queue) == 0 && b.arriving.Load() == 0 {
				break
			}
			continue
		}
		if timer == nil {
			timer = time.NewTimer(b.maxDelay)
		}
		select {
		case r := <-b.queue:
			b.arriving.Add(-1)
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-b.closed:
			return batch
		}
	}
	return batch
}

// drain serves every request still queued at close time.
func (b *Batcher) drain() {
	batch := make([]*batchReq, 0, b.maxBatch)
	for {
		select {
		case r := <-b.queue:
			b.arriving.Add(-1)
			batch = append(batch, r)
			if len(batch) == b.maxBatch {
				b.run(batch)
				batch = make([]*batchReq, 0, b.maxBatch)
			}
		default:
			if len(batch) > 0 {
				b.run(batch)
			}
			return
		}
	}
}

// run evaluates one batch and delivers per-request results. Requests
// whose context was cancelled while queued are dropped here — their
// callers have already returned — so a slot is never wasted on work
// nobody will read. Every delivered error is stamped with the
// request's trace ID (wrapRequestErr), so a failure inside a shared
// batch still names the individual request it belongs to.
func (b *Batcher) run(batch []*batchReq) {
	if b.fillObs != nil {
		// Fill delay is a property of batch formation — measure it from
		// the oldest member, cancelled or not.
		b.fillObs(time.Since(batch[0].at))
	}
	live := make([]*batchReq, 0, len(batch))
	reqs := make([][]*tensor.Tensor, 0, len(batch))
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.res <- PredictResult{Err: wrapRequestErr(r.ctx, err)}
			continue
		}
		live = append(live, r)
		reqs = append(reqs, r.states)
	}
	if len(live) == 0 {
		return
	}
	// The batch computes under its own context: request contexts only
	// govern their caller's wait (and pre-dispatch dropping), so one
	// cancellation cannot abort batchmates mid-flight.
	results, err := b.eng.PredictBatch(context.Background(), reqs)
	if err != nil {
		for _, r := range live {
			r.res <- PredictResult{Err: wrapRequestErr(r.ctx, err)}
		}
		return
	}
	b.batches.Add(1)
	b.requests.Add(int64(len(live)))
	for i, r := range live {
		results[i].Err = wrapRequestErr(r.ctx, results[i].Err)
		r.res <- results[i]
	}
}
