package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tensor"
)

// predictByHand evaluates one step without the engine: each rank's
// halo-extended slice of the state through that rank's own model as a
// batch of one, gathered — the definition PredictBatch must reproduce.
func predictByHand(e *Ensemble, state *tensor.Tensor) *tensor.Tensor {
	p, halo := e.Partition, e.ModelCfg.Halo()
	parts := make([]*tensor.Tensor, p.Ranks())
	for r, piece := range p.SplitCHW(state, halo) {
		b := p.BlockOfRank(r)
		in := piece.Reshape(1, state.Dim(0), b.Height()+2*halo, b.Width()+2*halo)
		parts[r] = e.Models[r].CloneShared().Forward(in).Reshape(state.Dim(0), b.Height(), b.Width())
	}
	return p.GatherCHW(parts)
}

// TestPredictBatchMatchesPredict asserts the batching contract: a
// micro-batch of B requests through PredictBatch is bit-identical,
// request for request, to B single-request calls (Predict is the
// one-request batch) and to the engine-free per-rank evaluation — the
// property that makes the Batcher's coalescing invisible to callers.
func TestPredictBatchMatchesPredict(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	for _, strat := range []model.Strategy{model.ZeroPad, model.NeighborPad} {
		t.Run(strat.String(), func(t *testing.T) {
			_, e := trainTinyEnsemble(t, strat, 2, 2)
			eng, err := NewEngine(e)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const B = 6
			reqs := make([][]*tensor.Tensor, B)
			for i := range reqs {
				reqs[i] = []*tensor.Tensor{ds.Snapshots[i]}
			}
			results, err := eng.PredictBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != B {
				t.Fatalf("got %d results for %d requests", len(results), B)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("request %d failed: %v", i, r.Err)
				}
				want, err := eng.Predict(ctx, ds.Snapshots[i])
				if err != nil {
					t.Fatal(err)
				}
				if !r.Frame.Equal(want) {
					t.Fatalf("request %d: batched frame differs from unbatched Predict", i)
				}
				if !want.Equal(predictByHand(e, ds.Snapshots[i])) {
					t.Fatalf("request %d: Predict differs from the per-rank evaluation", i)
				}
			}
		})
	}
}

// TestPredictBatchTemporalWindow covers the window > 1 path: each
// request carries a history, and the batched channel-stacked inputs
// must reproduce unbatched Predict bit for bit.
func TestPredictBatchTemporalWindow(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	cfg := windowCfg(2)
	cfg.Epochs = 1
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Ensemble())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := [][]*tensor.Tensor{
		{ds.Snapshots[0], ds.Snapshots[1]},
		{ds.Snapshots[3], ds.Snapshots[4]},
		{ds.Snapshots[5], ds.Snapshots[6]},
	}
	results, err := eng.PredictBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		want, err := eng.Predict(ctx, reqs[i]...)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Frame.Equal(want) {
			t.Fatalf("request %d: batched window frame differs from unbatched", i)
		}
	}
}

// TestPredictBatchErrorIsolation asserts per-request error isolation:
// invalid requests get their own named errors while batchmates are
// still served bit-identically.
func TestPredictBatchErrorIsolation(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := tensor.New(4, 8, 8) // wrong grid extent
	reqs := [][]*tensor.Tensor{
		{ds.Snapshots[0]},
		{bad},
		{}, // no history at all
		{ds.Snapshots[1]},
	}
	results, err := eng.PredictBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[1].Err, ErrShapeMismatch) {
		t.Fatalf("bad-shape request: got %v, want ErrShapeMismatch", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrBadWindow) {
		t.Fatalf("empty-history request: got %v, want ErrBadWindow", results[2].Err)
	}
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Fatalf("valid request %d poisoned: %v", i, results[i].Err)
		}
		want, err := eng.Predict(ctx, reqs[i]...)
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].Frame.Equal(want) {
			t.Fatalf("valid request %d differs from unbatched", i)
		}
	}
}

// TestPredictNamedErrors asserts the unbatched entrypoint wraps the
// same named errors.
func TestPredictNamedErrors(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Predict(ctx); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("no-history Predict: got %v, want ErrBadWindow", err)
	}
	if _, err := eng.Predict(ctx, tensor.New(4, 8, 8)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("bad-shape Predict: got %v, want ErrShapeMismatch", err)
	}
	if _, err := eng.Predict(ctx, tensor.New(3, 16, 16)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("bad-channel Predict: got %v, want ErrShapeMismatch", err)
	}
	if _, err := eng.NewSession(ctx, tensor.New(4, 8, 8)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("bad-shape NewSession: got %v, want ErrShapeMismatch", err)
	}
}

// TestBatcherConcurrentBitIdentical is the satellite -race test: N
// concurrent Predict calls coalesced by the Batcher must be
// bit-identical to N sequential unbatched calls.
func TestBatcherConcurrentBitIdentical(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const N = 16
	want := make([]*tensor.Tensor, N)
	for i := range want {
		w, err := eng.Predict(ctx, ds.Snapshots[i%8])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	bat, err := NewBatcher(eng, WithMaxBatch(4), WithMaxDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()
	got := make([]*tensor.Tensor, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = bat.Predict(ctx, ds.Snapshots[i%8])
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if !got[i].Equal(want[i]) {
			t.Fatalf("request %d: batcher frame differs from sequential Predict", i)
		}
	}
	if s := bat.Stats(); s.Requests != N || s.Batches < 1 {
		t.Fatalf("stats = %+v, want %d requests over ≥1 batches", s, N)
	}
}

// announce holds batches open the way a caller on its way to the
// queue does: it raises the arriving-caller count by n, so the
// dispatcher waits for batchmates (up to MaxDelay) instead of
// dispatching what it has. The returned func lowers the count again.
func announce(b *Batcher, n int) func() {
	b.arriving.Add(int64(n))
	return func() { b.arriving.Add(-int64(n)) }
}

// TestBatcherLoneCallerNoWait asserts a lone request dispatches at
// once: with nobody on the way, a one-minute MaxDelay must not hold
// its batch open.
func TestBatcherLoneCallerNoWait(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	fills := make(chan time.Duration, 1)
	bat, err := NewBatcher(eng, WithMaxDelay(time.Minute),
		WithFillObserver(func(d time.Duration) { fills <- d }))
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := bat.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatalf("lone Predict: %v", err)
	}
	want, err := eng.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("lone batched frame differs from Engine.Predict")
	}
	if d := <-fills; d >= time.Second {
		t.Fatalf("lone request waited %v for batchmates, want < 1s", d)
	}
}

// TestBatcherAnnouncedArrivalsCoalesce asserts the wait half of the
// rule deterministically: with MaxBatch callers announced, the batch
// stays open until all of them have landed and dispatches once, full,
// bit-identical to Engine.Predict.
func TestBatcherAnnouncedArrivalsCoalesce(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	const N = 4
	bat, err := NewBatcher(eng, WithMaxBatch(N), WithMaxDelay(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()
	defer announce(bat, N)()
	ctx := context.Background()
	got := make([]*tensor.Tensor, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = bat.Predict(ctx, ds.Snapshots[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		want, err := eng.Predict(ctx, ds.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("request %d: coalesced frame differs from Engine.Predict", i)
		}
	}
	if s := bat.Stats(); s.Batches != 1 || s.Requests != N {
		t.Fatalf("stats = %+v, want %d requests in 1 batch", s, N)
	}
}

// TestBatcherCloseWhileWaiting closes the batcher while its open
// batch waits on an announced caller who never lands: Close must not
// wait out MaxDelay, and the requests already in the batch are served
// in that one batch.
func TestBatcherCloseWhileWaiting(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewBatcher(eng, WithMaxBatch(8), WithMaxDelay(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer announce(bat, 1)()
	ctx := context.Background()
	const N = 2
	done := make(chan error, N)
	for i := 0; i < N; i++ {
		go func(i int) {
			_, err := bat.Predict(ctx, ds.Snapshots[i])
			done <- err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let both join the open batch
	start := time.Now()
	if err := bat.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 10*time.Second {
		t.Fatalf("Close took %v: it waited for the announced caller", d)
	}
	for i := 0; i < N; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request in the open batch dropped at close: %v", err)
		}
	}
	if s := bat.Stats(); s.Batches != 1 || s.Requests != N {
		t.Fatalf("stats = %+v, want %d requests in 1 batch", s, N)
	}
}

// TestBatcherMidBatchCancellation cancels one request after it has
// been batched but before its batch dispatches: the cancelled caller
// gets ctx.Err() and its batchmates are served bit-identically.
func TestBatcherMidBatchCancellation(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bat, err := NewBatcher(eng, WithMaxBatch(3), WithMaxDelay(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()
	defer announce(bat, 1)()

	type res struct {
		frame *tensor.Tensor
		err   error
	}
	results := make([]chan res, 3)
	cancelCtx, cancel := context.WithCancel(ctx)
	submit := func(i int, rctx context.Context) {
		results[i] = make(chan res, 1)
		go func() {
			f, err := bat.Predict(rctx, ds.Snapshots[i])
			results[i] <- res{f, err}
		}()
	}
	// Request 0 opens the batch (a caller is announced, so the
	// dispatcher waits up to a minute for batchmates), request 1 joins
	// and is then cancelled mid-batch; request 2 completes the batch
	// and triggers dispatch.
	submit(0, ctx)
	submit(1, cancelCtx)
	time.Sleep(50 * time.Millisecond) // let both join the batch
	cancel()
	r1 := <-results[1]
	if !errors.Is(r1.err, context.Canceled) {
		t.Fatalf("cancelled request: got %v, want context.Canceled", r1.err)
	}
	submit(2, ctx)
	for _, i := range []int{0, 2} {
		r := <-results[i]
		if r.err != nil {
			t.Fatalf("request %d failed: %v", i, r.err)
		}
		want, err := eng.Predict(ctx, ds.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		if !r.frame.Equal(want) {
			t.Fatalf("request %d differs from unbatched after batchmate cancellation", i)
		}
	}
}

// TestBatcherCloseDrains asserts Close's drain semantics: requests
// queued before Close are still served; requests after Close fail
// with ErrBatcherClosed.
func TestBatcherCloseDrains(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bat, err := NewBatcher(eng, WithMaxBatch(8), WithMaxDelay(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer announce(bat, 1)()
	done := make(chan error, 1)
	go func() {
		_, err := bat.Predict(ctx, ds.Snapshots[0])
		done <- err
	}()
	// Wait for the request to reach the dispatcher (it sits in an
	// open batch, waiting up to a minute for the announced caller),
	// then close: the drain must flush it rather than abandon it.
	time.Sleep(50 * time.Millisecond)
	if err := bat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued request dropped at close: %v", err)
	}
	if _, err := bat.Predict(ctx, ds.Snapshots[0]); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-close Predict: got %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherPreCancelledRequest asserts a request whose context is
// already cancelled never reaches a batch.
func TestBatcherPreCancelledRequest(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewBatcher(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bat.Predict(ctx, tensor.New(4, 16, 16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if s := bat.Stats(); s.Requests != 0 {
		t.Fatalf("cancelled request was dispatched: %+v", s)
	}
}
