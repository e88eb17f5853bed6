package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestTrainerReportMode: the report carries exactly the result of the
// mode that ran, and only the subdomain scheme yields an ensemble.
func TestTrainerReportMode(t *testing.T) {
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	cfg.Epochs = 2
	tr, err := NewTrainer(cfg, WithTopology(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Train(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parallel == nil || rep.DataParallel != nil {
		t.Fatalf("report mode wrong: %+v", rep)
	}
	if rep.Ensemble() == nil {
		t.Fatal("no ensemble from parallel report")
	}
	tr, err = NewTrainer(cfg, WithDataParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = tr.Train(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataParallel == nil || rep.Parallel != nil {
		t.Fatalf("report mode wrong: %+v", rep)
	}
	if rep.Ensemble() != nil {
		t.Fatal("data-parallel report produced an ensemble")
	}
}

func TestTrainerProgressEvents(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	type key struct{ rank, epoch int }
	seen := map[key]float64{}
	tr, err := NewTrainer(cfg, WithTopology(2, 1), WithProgress(func(p Progress) {
		seen[key{p.Rank, p.Epoch}] = p.Loss
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Train(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2*cfg.Epochs {
		t.Fatalf("got %d progress events, want %d", len(seen), 2*cfg.Epochs)
	}
	for r, rr := range rep.Parallel.Ranks {
		for ep, loss := range rr.History {
			if got := seen[key{r, ep}]; got != loss {
				t.Fatalf("rank %d epoch %d: progress loss %g != history %g", r, ep, got, loss)
			}
		}
	}
}

func TestTrainerProgressConcurrentMode(t *testing.T) {
	// Progress callbacks are serialized even when ranks run
	// concurrently; counting without extra locking must be safe under
	// -race because the trainer holds its own mutex.
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	events := 0
	tr, err := NewTrainer(cfg, WithTopology(2, 1), WithExecMode(Concurrent),
		WithProgress(func(Progress) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if events != 2*cfg.Epochs {
		t.Fatalf("got %d progress events, want %d", events, 2*cfg.Epochs)
	}
}

// TestTrainerCancellation is the satellite's promptness contract for
// training: Train must return ctx.Err() within one epoch.
func TestTrainerCancellation(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 1000 // would take minutes if cancellation leaked

	// Already cancelled: no epoch runs.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := NewTrainer(cfg, WithTopology(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(cancelled, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Train: %v", err)
	}

	// Cancel from the progress callback after epoch 2: at most one
	// more epoch may start per rank.
	for _, mode := range []ExecMode{CriticalPath, Concurrent} {
		ctx, cancel := context.WithCancel(context.Background())
		var maxEpoch atomic.Int64
		tr, err := NewTrainer(cfg, WithTopology(2, 1), WithExecMode(mode),
			WithProgress(func(p Progress) {
				if int64(p.Epoch) > maxEpoch.Load() {
					maxEpoch.Store(int64(p.Epoch))
				}
				if p.Epoch == 2 {
					cancel()
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.Train(ctx, ds)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: mid-flight cancel: %v", mode, err)
		}
		if got := maxEpoch.Load(); got > 3 {
			t.Fatalf("%v: training ran to epoch %d after a cancel at epoch 2", mode, got)
		}
		cancel()
	}
}

func TestTrainerDataParallelCancellation(t *testing.T) {
	// The baseline's replicas must abandon the run in the SAME epoch —
	// a unilateral exit would deadlock the others in the allreduce.
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	cfg.Epochs = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr, err := NewTrainer(cfg, WithDataParallel(2), WithProgress(func(p Progress) {
		if p.Epoch == 1 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Train(ctx, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("data-parallel cancel: %v", err)
	}
}

func TestTrainerDataParallelCancellableCtxSameCommStats(t *testing.T) {
	// The per-epoch cancellation coordination is control-plane
	// signalling, not mpi traffic: a cancellable-but-never-cancelled
	// context must report exactly the communication volume of the
	// non-cancellable path (the number the baseline is judged by).
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	cfg.Epochs = 2
	want, err := trainDataParallel(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr, err := NewTrainer(cfg, WithDataParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Train(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataParallel.CommStats != want.CommStats {
		t.Fatalf("cancellable ctx changed comm accounting: %+v vs %+v",
			rep.DataParallel.CommStats, want.CommStats)
	}
}

func TestNewTrainerValidation(t *testing.T) {
	bad := tinyCfg()
	bad.Epochs = 0
	if _, err := NewTrainer(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewTrainer(tinyCfg(), WithTopology(0, 2)); err == nil {
		t.Fatal("zero topology accepted")
	}
	ds := tinyDataset(t, 16, 6)
	tr, err := NewTrainer(tinyCfg(), WithExecMode(ExecMode(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(context.Background(), ds); err == nil {
		t.Fatal("invalid exec mode accepted")
	}
}
