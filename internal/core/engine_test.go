package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestEngineDoesNotMutateEnsemble(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	conv := e.Models[0].Layers()[0].(*nn.Conv2D)
	before := conv.Workers
	eng, err := NewEngine(e, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyDataset(t, 16, 6)
	ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	ses.Close()
	if conv.Workers != before {
		t.Fatalf("engine mutated the shared model: Workers %d → %d", before, conv.Workers)
	}
}

func TestEngineWorkersInheritedWithoutOption(t *testing.T) {
	// Without WithWorkers, clones keep the knob the ensemble models
	// carry (e.g. from TrainConfig.Workers); the option overrides it.
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	for _, m := range e.Models {
		m.SetWorkers(3)
	}
	inherit, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := inherit.newRankModels().models[0].Layers()[0].(*nn.Conv2D).Workers; got != 3 {
		t.Fatalf("clone Workers = %d, want inherited 3", got)
	}
	override, err := NewEngine(e, WithWorkers(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := override.newRankModels().models[0].Layers()[0].(*nn.Conv2D).Workers; got != 5 {
		t.Fatalf("clone Workers = %d, want option 5", got)
	}
	if _, err := NewEngine(e, WithWorkers(-1)); err == nil {
		t.Fatal("negative WithWorkers accepted")
	}
}

// TestConcurrentSessionsBitIdentical is the satellite's -race test:
// two sessions over ONE engine roll out concurrently and must each
// reproduce the frames of a lone sequential session bit for bit —
// proving sessions share nothing mutable. The frames are additionally
// checked against an independent reference: iterating Engine.Predict, whose halos come
// from direct slicing of each full-domain frame instead of the
// point-to-point exchange.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	const steps = 4
	ref, err := rollout(e, steps, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	// Independent cross-check of the reference itself (different
	// communication path, same numbers).
	refEng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	state := ds.Snapshots[0]
	for k := 0; k < steps; k++ {
		if state, err = refEng.Predict(context.Background(), state); err != nil {
			t.Fatal(err)
		}
		if !state.Equal(ref.Steps[k]) {
			t.Fatalf("step %d: session-backed rollout differs from direct-slicing Predict (max diff %g)",
				k, state.Sub(ref.Steps[k]).AbsMax())
		}
	}
	// Different engine knobs per run to stress the clone isolation:
	// workers differ, results may not.
	for _, workers := range []int{1, 3} {
		eng, err := NewEngine(e, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		const sessions = 2
		frames := make([][]*tensor.Tensor, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
				if err != nil {
					errs[s] = err
					return
				}
				defer ses.Close()
				frames[s] = make([]*tensor.Tensor, 0, steps)
				errs[s] = ses.Run(context.Background(), steps, func(k int, f *tensor.Tensor) error {
					frames[s] = append(frames[s], f)
					return nil
				})
			}(s)
		}
		wg.Wait()
		for s := 0; s < sessions; s++ {
			if errs[s] != nil {
				t.Fatalf("workers=%d session %d: %v", workers, s, errs[s])
			}
			for k := 0; k < steps; k++ {
				if !frames[s][k].Equal(ref.Steps[k]) {
					t.Fatalf("workers=%d session %d step %d differs from the lone sequential session", workers, s, k)
				}
			}
		}
	}
}

func TestConcurrentPredict(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	for _, workers := range []int{0, 2} {
		var opts []EngineOption
		if workers > 0 {
			opts = append(opts, WithWorkers(workers))
		}
		eng, err := NewEngine(e, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Predict(context.Background(), ds.Snapshots[0])
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := eng.Predict(context.Background(), ds.Snapshots[0])
				if err != nil {
					errs[i] = err
					return
				}
				if !got.Equal(want) {
					errs[i] = fmt.Errorf("workers=%d: concurrent Predict %d differs", workers, i)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPredictAllocs pins what a warm Predict allocates: the returned
// frame and a few headers, never the per-rank inputs, outputs or
// activations, which live on the pooled clone set.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	ctx := context.Background()
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		eng, err := NewEngine(e, WithPrecision(prec))
		if err != nil {
			t.Fatal(err)
		}
		predict := func() {
			if _, err := eng.Predict(ctx, ds.Snapshots[0]); err != nil {
				t.Fatal(err)
			}
		}
		predict()
		if allocs := testing.AllocsPerRun(20, predict); allocs > 8 {
			t.Errorf("%v: warm Predict allocates %.1f objects, want <= 8", prec, allocs)
		}
	}
}

// TestSessionCancellation is the satellite's promptness contract:
// Session.Run must return ctx.Err() within one step of cancellation.
func TestSessionCancellation(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: nothing runs at all.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.NewSession(cancelled, ds.Snapshots[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSession on cancelled ctx: %v", err)
	}

	ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	if _, err := ses.Step(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step on cancelled ctx: %v", err)
	}
	if ses.Steps() != 0 {
		t.Fatalf("cancelled Step advanced the session to %d", ses.Steps())
	}

	// Mid-flight cancellation: cancel from the step-2 callback; Run
	// must stop before step 3.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err = ses.Run(ctx, 100, func(k int, _ *tensor.Tensor) error {
		ran++
		if k == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after mid-flight cancel: %v", err)
	}
	if ran != 2 {
		t.Fatalf("Run took %d steps after a cancel at step 2", ran)
	}
}

func TestSessionRunCallbackError(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	boom := errors.New("sink full")
	if err := ses.Run(context.Background(), 5, func(k int, _ *tensor.Tensor) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("callback error not propagated: %v", err)
	}
	if ses.Steps() != 1 {
		t.Fatalf("Run kept stepping after callback error: %d steps", ses.Steps())
	}
}

func TestSessionStatsIncremental(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	if _, err := ses.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	comm1, halo1 := ses.LastStepStats()
	if comm1.MessagesSent == 0 || halo1.MessagesSent == 0 {
		t.Fatalf("no per-step traffic recorded: %+v / %+v", comm1, halo1)
	}
	if _, err := ses.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ses.CommStats().MessagesSent; got != 2*comm1.MessagesSent {
		t.Fatalf("cumulative stats %d != 2 steps × %d", got, comm1.MessagesSent)
	}
	// Parity with the deprecated one-world rollout accounting.
	ref, err := rollout(e, 2, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if ses.CommStats() != ref.CommStats || ses.HaloCommStats() != ref.HaloCommStats {
		t.Fatalf("session stats %+v/%+v != rollout stats %+v/%+v",
			ses.CommStats(), ses.HaloCommStats(), ref.CommStats, ref.HaloCommStats)
	}
}

func TestSessionClosedRejectsStep(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := ses.Step(context.Background()); err == nil {
		t.Fatal("Step on closed session accepted")
	}
}

func TestEngineRejectsInnerCrop(t *testing.T) {
	ds := tinyDataset(t, 20, 5)
	cfg := tinyCfg()
	cfg.Epochs = 1
	cfg.Model.Strategy = model.InnerCrop
	res, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Ensemble())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewSession(context.Background(), ds.Snapshots[0]); err == nil {
		t.Fatal("inner-crop session accepted")
	}
	if _, err := eng.Predict(context.Background(), ds.Snapshots[0]); err == nil {
		t.Fatal("inner-crop predict accepted")
	}
}
