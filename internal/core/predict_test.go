package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// predictByHand evaluates one step without the engine: each rank's
// halo-extended windows of the newest Window states, stacked along the
// channel axis, through that rank's own model as a batch of one,
// gathered — the definition Predict must reproduce.
func predictByHand(e *Ensemble, states ...*tensor.Tensor) *tensor.Tensor {
	p, halo := e.Partition, e.ModelCfg.Halo()
	states = states[len(states)-e.window():]
	c := states[0].Dim(0)
	stacked := make([][]float64, p.Ranks())
	for _, st := range states {
		for r, piece := range p.SplitCHW(st, halo) {
			stacked[r] = append(stacked[r], piece.Data()...)
		}
	}
	parts := make([]*tensor.Tensor, p.Ranks())
	for r, data := range stacked {
		b := p.BlockOfRank(r)
		in := tensor.FromSlice(data, 1, len(states)*c, b.Height()+2*halo, b.Width()+2*halo)
		parts[r] = e.Models[r].CloneShared().Forward(in).Reshape(c, b.Height(), b.Width())
	}
	return p.GatherCHW(parts)
}

// TestPredictMatchesPerRankEvaluation asserts Predict is, request for
// request, the engine-free per-rank evaluation of the state.
func TestPredictMatchesPerRankEvaluation(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	for _, strat := range []model.Strategy{model.ZeroPad, model.NeighborPad} {
		t.Run(strat.String(), func(t *testing.T) {
			_, e := trainTinyEnsemble(t, strat, 2, 2)
			eng, err := NewEngine(e)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				got, err := eng.Predict(context.Background(), ds.Snapshots[i])
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(predictByHand(e, ds.Snapshots[i])) {
					t.Fatalf("request %d: Predict differs from the per-rank evaluation", i)
				}
			}
		})
	}
}

// TestPredictTemporalWindow covers the window > 1 path: each request
// carries a history, whose newest two states stack along the channel
// axis of every rank's input exactly as the per-rank evaluation
// stacks them.
func TestPredictTemporalWindow(t *testing.T) {
	ds := tinyDataset(t, 16, 10)
	cfg := windowCfg(2)
	cfg.Epochs = 1
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, hist := range [][]*tensor.Tensor{
		{ds.Snapshots[0], ds.Snapshots[1]},
		{ds.Snapshots[2], ds.Snapshots[3], ds.Snapshots[4]}, // only the newest two count
		{ds.Snapshots[5], ds.Snapshots[6]},
	} {
		got, err := eng.Predict(context.Background(), hist...)
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		if !got.Equal(predictByHand(e, hist...)) {
			t.Fatalf("request %d: window frame differs from the per-rank evaluation", i)
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

// TestBatcherConcurrentBitIdentical is the -race test: N concurrent
// Predict calls, each on its own pooled clone set, are bit-identical to
// N sequential calls, and the Batcher shim counts every one of them.
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
	bat, err := NewBatcher(eng)
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
			t.Fatalf("request %d: concurrent frame differs from sequential Predict", i)
		}
	}
	if s := bat.Stats(); s.Requests != N || s.Batches < 1 {
		t.Fatalf("stats = %+v, want %d requests over ≥1 batches", s, N)
	}
}

// TestBatcherPreCancelledRequest asserts a request whose context is
// already cancelled is refused before any compute and is not counted.
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
