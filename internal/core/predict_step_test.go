package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestPredictIsSessionStep1: a session step and Predict are one forward
// over one input layout, so step 1 of a session equals Predict on the
// initial history bit for bit, and every later step equals Predict fed
// the session's own previous frames — for every strategy, window,
// partition shape, precision and transport. On a TCP world the session
// side is rank 0's gathered frame and the Predict side a plain engine
// over the same ensemble.
func TestPredictIsSessionStep1(t *testing.T) {
	// A 28-point edge keeps the 1×4 blocks (7 rows) at the all-valid
	// transpose-conv stack's minimum input and splits unevenly three
	// ways (10/9/9). The 12→12 layer takes the f32 GEMM route, the
	// 4→12 and 12→4 ones the direct kernel.
	const n, steps = 28, 4
	ds := tinyDataset(t, n, 6)
	ctx := context.Background()
	for _, strat := range []model.Strategy{model.NeighborPad, model.ZeroPad, model.TransposeConv} {
		for _, window := range []int{1, 2} {
			for _, grid2 := range [][2]int{{2, 2}, {3, 2}, {1, 4}} {
				cfg := tinyCfg()
				cfg.Epochs = 1
				cfg.TemporalWindow = window
				cfg.Model.Strategy = strat
				cfg.Model.Kernel = 3
				cfg.Model.Channels = []int{window * grid.NumChannels, 12, 12, grid.NumChannels}
				res, err := trainParallel(ds, grid2[0], grid2[1], cfg, CriticalPath)
				if err != nil {
					t.Fatal(err)
				}
				e := res.Ensemble()
				initials := ds.Snapshots[:window]
				for _, prec := range []nn.Precision{nn.F64, nn.F32} {
					plain, err := NewEngine(e, WithPrecision(prec))
					if err != nil {
						t.Fatal(err)
					}
					for _, tr := range []struct {
						name    string
						rollout func(*testing.T, *Ensemble, []*tensor.Tensor, int, ...EngineOption) ([]*tensor.Tensor, mpi.CommStats)
					}{{"mem", memRollout}, {"tcp", tcpRollout}} {
						name := fmt.Sprintf("%v/w%d/%dx%d/%v/%s", strat, window, grid2[0], grid2[1], prec, tr.name)
						frames, _ := tr.rollout(t, e, initials, steps, WithPrecision(prec))
						history := append([]*tensor.Tensor(nil), initials...)
						for k, got := range frames {
							want, err := plain.Predict(ctx, history[k:]...)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !got.Equal(want) {
								t.Fatalf("%s: step %d differs from Predict (max diff %g)", name, k+1, got.Sub(want).AbsMax())
							}
							history = append(history, got)
						}
					}
				}
			}
		}
	}
}

// TestFailedStepBreaksSession: once a Step has failed part-way, ranks
// disagree on the step and the world is closed, so the session must
// refuse to compute further instead of serving garbage — and the
// engine, whose pooled clones it returns, must be unharmed.
func TestFailedStepBreaksSession(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	// Link 1→0 carries two messages a step (halo strip, gather piece):
	// step 1 is clean, then the link is cut, and the deadline of the
	// steps' context ends the starved step.
	ctx := ContextWithRequestID(context.Background(), "broken-req-1")
	ses := faultySession(t, ctx, eng, initials, mpitest.Rule{From: 1, To: 0, After: 2, Partition: true})
	stepCtx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	var good []*tensor.Tensor
	var stepErr error
	for stepErr == nil && len(good) < 64 {
		var f *tensor.Tensor
		if f, stepErr = ses.Step(stepCtx); stepErr == nil {
			good = append(good, f)
		}
	}
	if stepErr == nil {
		t.Fatal("the partition never fired")
	}
	if len(good) != 1 {
		t.Fatalf("%d steps before the partition, want 1", len(good))
	}
	if errors.Is(stepErr, ErrSessionBroken) || !errors.Is(stepErr, context.DeadlineExceeded) {
		t.Fatalf("the failing step did not report its cause, the deadline: %v", stepErr)
	}
	if !strings.Contains(stepErr.Error(), "request=broken-req-1") || !attributed.MatchString(stepErr.Error()) {
		t.Fatalf("step error does not name the request, a rank and its (from, tag): %v", stepErr)
	}

	frame, err := ses.Step(ctx)
	if frame != nil || !errors.Is(err, ErrSessionBroken) || !strings.Contains(err.Error(), "request=broken-req-1") {
		t.Fatalf("Step on a broken session: frame %v, err %v", frame, err)
	}
	if err := ses.Run(ctx, 1, nil); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("Run on a broken session: %v", err)
	}
	if ses.Steps() != len(good) {
		t.Fatalf("broken session counts %d steps, completed %d", ses.Steps(), len(good))
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("Close of a broken session: %v", err)
	}

	// Same engine, fresh session: the steps before the partition match
	// an unfaulted rollout, and so does a fresh session on the clones
	// the broken one returned.
	want, _ := memRollout(t, e, initials, 3)
	assertFramesEqual(t, "broken session before the partition", good, want[:len(good)])
	fresh, err := eng.NewSession(ctx, initials...)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var again []*tensor.Tensor
	if err := fresh.Run(ctx, len(want), func(_ int, f *tensor.Tensor) error {
		again = append(again, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "fresh session after a broken one", again, want)
}
