package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/loss"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
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

// replayEpoch is the training loops' epoch written against
// Sequential.Backward — the whole backward pass, the first layer's
// input gradient included — and returns the epoch's mean loss.
func (p *replay) epoch(samples []dataset.Sample, cfg TrainConfig) float64 {
	m := p.m
	crop := cfg.Model.TargetCrop()
	epochLoss, seen := 0.0, 0
	for _, idx := range dataset.MiniBatches(len(samples), cfg.BatchSize, p.rng) {
		in, tg := dataset.Gather(samples, idx)
		if crop > 0 {
			tg = tensor.Crop2D(tg, crop)
		}
		nn.ZeroGrads(m)
		l, dPred := p.lossFn.Eval(m.Forward(in), tg)
		m.Backward(dPred)
		if cfg.ClipNorm > 0 {
			nn.ClipGradNorm(m, cfg.ClipNorm)
		}
		p.optimizer.Step(m)
		epochLoss += l * float64(len(idx))
		seen += len(idx)
	}
	return epochLoss / float64(seen)
}

// replay is what one training loop starts from.
type replay struct {
	m         *nn.Sequential
	optimizer opt.Optimizer
	lossFn    loss.Loss
	rng       *tensor.RNG
}

func newReplay(t *testing.T, cfg TrainConfig, modelSeed, shuffleSeed int64) *replay {
	t.Helper()
	mc := cfg.Model
	mc.Seed = modelSeed
	m, err := model.Build(mc)
	if err != nil {
		t.Fatal(err)
	}
	optimizer, err := NewOptimizer(cfg.Optimizer, cfg.lr())
	if err != nil {
		t.Fatal(err)
	}
	lossFn, err := NewLoss(cfg.Loss)
	if err != nil {
		t.Fatal(err)
	}
	var rng *tensor.RNG
	if cfg.Shuffle {
		rng = tensor.NewRNG(shuffleSeed)
	}
	return &replay{m, optimizer, lossFn, rng}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestTrainerSkipsOnlyFirstLayerInputGrad: the training loops call
// BackwardParams, which never computes the first layer's dX. Nothing
// that is kept depends on it: a 2×2, 3-epoch run has the same loss
// history and the same parameters, bit for bit, as the same loop
// replayed with the full Backward.
func TestTrainerSkipsOnlyFirstLayerInputGrad(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	for _, strategy := range []model.Strategy{model.ZeroPad, model.NeighborPad} {
		t.Run(strategy.String(), func(t *testing.T) {
			cfg := tinyCfg()
			cfg.Model.Strategy = strategy
			res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
			if err != nil {
				t.Fatal(err)
			}
			for r, rr := range res.Ranks {
				samples := dataset.WindowedSubdomainSamples(ds, res.Partition, r, cfg.Model.Halo(), cfg.Window())
				ms, ss := rankSeeds(cfg, r)
				p := newReplay(t, cfg, ms, ss)
				history := make([]float64, cfg.Epochs)
				for epoch := range history {
					history[epoch] = p.epoch(samples, cfg)
				}
				sameBits(t, fmt.Sprintf("rank %d history", r), rr.History, history)
				sameBits(t, fmt.Sprintf("rank %d parameters", r), nn.FlattenParams(rr.Model), nn.FlattenParams(p.m))
			}
		})
	}
}

// TestDataParallelSkipsOnlyFirstLayerInputGrad is the same statement
// for the weight-averaging baseline's loop.
func TestDataParallelSkipsOnlyFirstLayerInputGrad(t *testing.T) {
	const ranks = 4
	ds := tinyDataset(t, 16, 9)
	cfg := tinyCfg()
	res, err := trainDataParallel(ds, ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := ds.Pairs()
	history := make([]float64, cfg.Epochs)
	replicas := make([]*replay, ranks)
	for r := range replicas {
		replicas[r] = newReplay(t, cfg, cfg.Model.Seed, cfg.Seed+int64(r))
	}
	err = mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		r := c.Rank()
		p, m := replicas[r], replicas[r].m
		var shard []dataset.Sample
		for i := r; i < len(pairs); i += ranks {
			shard = append(shard, pairs[i])
		}
		for epoch := range history {
			localMean := p.epoch(shard, cfg)
			avg := c.Allreduce(nn.FlattenParams(m), mpi.OpSum)
			for i := range avg {
				avg[i] /= ranks
			}
			if err := nn.UnflattenParams(m, avg); err != nil {
				panic(err)
			}
			mean := c.AllreduceScalar(localMean, mpi.OpSum) / ranks
			if r == 0 {
				history[epoch] = mean
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "history", res.History, history)
	sameBits(t, "parameters", nn.FlattenParams(res.Model), nn.FlattenParams(replicas[0].m))
}
