package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Progress is one training progress event: rank `Rank` finished epoch
// `Epoch` (0-based) with mean training loss `Loss`.
type Progress struct {
	Rank  int
	Epoch int
	Loss  float64
}

// ProgressFunc receives progress events. The trainer serializes calls
// (even in Concurrent mode), so the callback needs no locking of its
// own; it must not block for long, since it runs on the training path.
type ProgressFunc func(Progress)

// Trainer is the single training entrypoint of the package: it unifies
// the paper's communication-free parallel scheme (§III), the P = 1
// sequential reference, and the Viviani-style data-parallel
// weight-averaging baseline [4] behind one configuration + options
// API with context cancellation and progress reporting.
type Trainer struct {
	cfg      TrainConfig
	px, py   int
	mode     ExecMode
	dp       bool // selects the data-parallel baseline
	dpRanks  int
	world    *mpi.World // optional externally built world (WithTrainerWorld)
	progress ProgressFunc
	mu       sync.Mutex // serializes progress callbacks across ranks
}

// TrainerOption configures a Trainer at construction time.
type TrainerOption func(*Trainer)

// WithTopology sets the Px × Py process grid for the paper's scheme
// (default 1×1, the sequential whole-domain reference).
func WithTopology(px, py int) TrainerOption {
	return func(t *Trainer) { t.px, t.py = px, py }
}

// WithExecMode selects how ranks execute on this machine (default
// CriticalPath; see ExecMode).
func WithExecMode(m ExecMode) TrainerOption {
	return func(t *Trainer) { t.mode = m }
}

// WithProgress attaches a progress callback invoked after every
// (rank, epoch).
func WithProgress(fn ProgressFunc) TrainerOption {
	return func(t *Trainer) { t.progress = fn }
}

// WithDataParallel switches the trainer to the weight-averaging
// baseline on `ranks` whole-domain replicas instead of the paper's
// scheme. Topology and exec-mode options are ignored in this mode.
func WithDataParallel(ranks int) TrainerOption {
	return func(t *Trainer) { t.dp, t.dpRanks = true, ranks }
}

// WithTrainerWorld runs the trainer's communicating ranks over an
// externally built mpi world instead of a fresh in-process one — in
// particular a TCP world from mpi.DialTCP, which makes training
// genuinely multi-process: each process trains only the rank(s) its
// world hosts. For the paper's scheme this implies Concurrent-style
// execution (the rank function runs under World.Run regardless of the
// exec mode), and per-rank results are populated only for local ranks
// — so CriticalPathSeconds and TotalComputeSeconds cover this
// process's share. For the data-parallel baseline the per-epoch
// weight allreduce simply crosses process boundaries.
//
// With a cancellable context on a distributed world, the coordinated
// per-epoch abort spans only this process's local ranks; killing the
// remaining processes is the launcher's job (cmd/mpirun does so when
// any rank exits non-zero).
func WithTrainerWorld(w *mpi.World) TrainerOption {
	return func(t *Trainer) { t.world = w }
}

// NewTrainer validates the configuration and builds a trainer.
func NewTrainer(cfg TrainConfig, opts ...TrainerOption) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, px: 1, py: 1, mode: CriticalPath}
	for _, o := range opts {
		o(t)
	}
	if !t.dp && (t.px <= 0 || t.py <= 0) {
		return nil, fmt.Errorf("core: non-positive process grid %dx%d", t.px, t.py)
	}
	return t, nil
}

// report delivers one progress event under the trainer's lock.
func (t *Trainer) report(p Progress) {
	if t.progress == nil {
		return
	}
	t.mu.Lock()
	t.progress(p)
	t.mu.Unlock()
}

// TrainReport is the outcome of Trainer.Train. Exactly one of Parallel
// and DataParallel is non-nil, matching the trainer's mode.
type TrainReport struct {
	// Parallel holds the result of the paper's scheme (or its 1×1
	// sequential special case).
	Parallel *ParallelResult
	// DataParallel holds the result of the weight-averaging baseline.
	DataParallel *DataParallelResult
}

// Ensemble packages the trained networks for inference (nil for the
// data-parallel baseline, whose single replica is in
// DataParallel.Model).
func (r *TrainReport) Ensemble() *Ensemble {
	if r.Parallel == nil {
		return nil
	}
	return r.Parallel.Ensemble()
}

// Train runs the configured training scheme over the dataset. It
// returns ctx.Err() (within one epoch of the cancellation) if the
// context is cancelled mid-run.
func (t *Trainer) Train(ctx context.Context, ds *dataset.Dataset) (*TrainReport, error) {
	if t.dp {
		res, err := t.trainDataParallel(ctx, ds)
		if err != nil {
			return nil, unwrapCtx(ctx, err)
		}
		return &TrainReport{DataParallel: res}, nil
	}
	res, err := t.trainParallel(ctx, ds)
	if err != nil {
		return nil, unwrapCtx(ctx, err)
	}
	return &TrainReport{Parallel: res}, nil
}

// unwrapCtx surfaces a cancellation as the bare ctx.Err() so callers
// can match it with errors.Is without knowing rank-wrapping details.
func unwrapCtx(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return cerr
	}
	return err
}

// trainParallel is the paper's §III scheme: one independent network
// per subdomain, no communication.
func (t *Trainer) trainParallel(ctx context.Context, ds *dataset.Dataset) (*ParallelResult, error) {
	cfg := t.cfg
	p, err := decomp.NewPartition(ds.Grid.Nx, ds.Grid.Ny, t.px, t.py)
	if err != nil {
		return nil, err
	}
	if err := validatePartition(p, cfg); err != nil {
		return nil, err
	}
	if ds.Len() < cfg.Window()+1 {
		return nil, fmt.Errorf("core: dataset has %d snapshots, need at least %d for window %d",
			ds.Len(), cfg.Window()+1, cfg.Window())
	}
	halo := cfg.Model.Halo()
	window := cfg.Window()
	ranks := p.Ranks()
	res := &ParallelResult{Partition: p, Config: cfg, Ranks: make([]RankResult, ranks)}
	for r := 0; r < ranks; r++ {
		res.Ranks[r].Rank = r
		res.Ranks[r].Block = p.BlockOfRank(r)
	}

	switch {
	case t.world != nil || t.mode == Concurrent:
		// One goroutine per locally hosted rank under the mpi runtime —
		// real concurrent execution, demonstrating that the scheme
		// needs no synchronization. An external (possibly distributed)
		// world trains only the ranks this process hosts; Model stays
		// nil for remote ranks.
		world := t.world
		if world == nil {
			world = mpi.NewWorld(ranks)
		} else if world.Size() != ranks {
			return nil, fmt.Errorf("core: trainer world has %d ranks, topology %dx%d needs %d",
				world.Size(), t.px, t.py, ranks)
		}
		errs := make([]error, ranks)
		err := world.Run(func(c *mpi.Comm) {
			r := c.Rank()
			samples := dataset.WindowedSubdomainSamples(ds, p, r, halo, window)
			ms, ss := rankSeeds(cfg, r)
			rr := &res.Ranks[r]
			rr.Seconds = measure(func() {
				rr.Model, rr.History, errs[r] = t.trainOne(ctx, samples, cfg, ms, ss, r)
			})
		})
		if err != nil {
			return nil, err
		}
		for r, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("core: rank %d: %w", r, e)
			}
		}
		res.TrainCommStats = world.TotalStats()
	case t.mode == CriticalPath:
		for r := 0; r < ranks; r++ {
			samples := dataset.WindowedSubdomainSamples(ds, p, r, halo, window)
			ms, ss := rankSeeds(cfg, r)
			var trainErr error
			rr := &res.Ranks[r]
			rank := r
			rr.Seconds = measure(func() {
				rr.Model, rr.History, trainErr = t.trainOne(ctx, samples, cfg, ms, ss, rank)
			})
			if trainErr != nil {
				return nil, fmt.Errorf("core: rank %d: %w", r, trainErr)
			}
		}
	default:
		return nil, fmt.Errorf("core: invalid exec mode %d", int(t.mode))
	}

	for _, rr := range res.Ranks {
		if rr.Seconds > res.CriticalPathSeconds {
			res.CriticalPathSeconds = rr.Seconds
		}
		res.TotalComputeSeconds += rr.Seconds
	}
	return res, nil
}

// trainOne runs the full training loop for one network on one set of
// samples and returns the trained model plus the per-epoch mean loss
// history. It is the inner kernel shared by every training mode; the
// context is checked at each epoch boundary, so cancellation costs at
// most one epoch of extra work.
func (t *Trainer) trainOne(ctx context.Context, samples []dataset.Sample, cfg TrainConfig, modelSeed, shuffleSeed int64, rank int) (*nn.Sequential, []float64, error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("core: no training samples")
	}
	mc := cfg.Model
	mc.Seed = modelSeed
	m, err := model.Build(mc)
	if err != nil {
		return nil, nil, err
	}
	// The rank model's activations, gradient buffers and band buffers
	// all live in its arena, so after the first step a whole epoch
	// allocates nothing in the network.
	optimizer, err := NewOptimizer(cfg.Optimizer, cfg.lr())
	if err != nil {
		return nil, nil, err
	}
	lossFn, err := NewLoss(cfg.Loss)
	if err != nil {
		return nil, nil, err
	}
	crop := cfg.Model.TargetCrop()
	var rng *tensor.RNG
	if cfg.Shuffle {
		rng = tensor.NewRNG(shuffleSeed)
	}
	history := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, history, err
		}
		if cfg.Schedule != nil {
			optimizer.SetLR(cfg.Schedule.LRAt(epoch))
		}
		batches := dataset.MiniBatches(len(samples), cfg.BatchSize, rng)
		epochLoss := 0.0
		seen := 0
		for _, idx := range batches {
			in, tg := dataset.Gather(samples, idx)
			if crop > 0 {
				tg = tensor.Crop2D(tg, crop)
			}
			nn.ZeroGrads(m)
			pred := m.Forward(in)
			l, dPred := lossFn.Eval(pred, tg)
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return nil, history, fmt.Errorf("core: training diverged at epoch %d (loss %g); reduce the learning rate", epoch, l)
			}
			m.BackwardParams(dPred)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(m, cfg.ClipNorm)
			}
			optimizer.Step(m)
			epochLoss += l * float64(len(idx))
			seen += len(idx)
		}
		mean := epochLoss / float64(seen)
		history = append(history, mean)
		t.report(Progress{Rank: rank, Epoch: epoch, Loss: mean})
	}
	// Drop the training arena — a minibatch's activations — so a
	// finished rank holds only its weights while the next one trains.
	m.SetScratch(nn.NewArena())
	return m, history, nil
}

// trainDataParallel runs the weight-averaging baseline: whole-domain
// samples are dealt round-robin to `dpRanks` replicas, each rank
// performs one local epoch, and after every epoch the replicas'
// flattened weights are averaged with an Allreduce. With a cancellable
// context, rank 0's view of the cancellation is fanned out at each
// epoch boundary so all replicas abandon the run in the same epoch —
// a unilateral exit would deadlock the others in the allreduce. The
// fan-out is control-plane signalling over plain channels, NOT mpi
// messages, so the baseline's communication accounting (the number
// the paper contrasts with its zero-communication scheme) is
// identical whether or not the context is cancellable.
func (t *Trainer) trainDataParallel(ctx context.Context, ds *dataset.Dataset) (*DataParallelResult, error) {
	cfg := t.cfg
	ranks := t.dpRanks
	if ranks <= 0 {
		return nil, fmt.Errorf("core: non-positive rank count %d", ranks)
	}
	pairs := ds.Pairs()
	if len(pairs) < ranks {
		return nil, fmt.Errorf("core: %d samples cannot be sharded over %d ranks", len(pairs), ranks)
	}
	if cfg.Model.Strategy != model.ZeroPad {
		return nil, fmt.Errorf("core: the data-parallel baseline supports only the zero-pad strategy (whole-domain replicas)")
	}

	world := t.world
	if world == nil {
		world = mpi.NewWorld(ranks)
	} else if world.Size() != ranks {
		return nil, fmt.Errorf("core: trainer world has %d ranks, data-parallel baseline needs %d",
			world.Size(), ranks)
	}
	local := world.LocalRanks()
	coord := local[0] // lowest local rank coordinates this process's abort
	res := &DataParallelResult{Ranks: ranks}
	history := make([]float64, cfg.Epochs)
	epochsDone := 0
	models := make([]*nn.Sequential, ranks)
	errs := make([]error, ranks)
	cancellable := ctx.Done() != nil
	var cancelErr error // written by the coordinator before the abort fan-out
	// abortCh[r] carries the coordinator's per-epoch continue/stop
	// decision to local replica r; cap 1 lets the coordinator run at
	// most one epoch ahead of a slow receiver. On a distributed world
	// the fan-out spans only this process's ranks (see
	// WithTrainerWorld).
	var abortCh map[int]chan bool
	if cancellable {
		abortCh = make(map[int]chan bool, len(local))
		for _, r := range local {
			if r != coord {
				abortCh[r] = make(chan bool, 1)
			}
		}
	}

	res.WallSeconds = measure(func() {
		runErr := world.Run(func(c *mpi.Comm) {
			r := c.Rank()
			// Every replica starts from identical weights (same seed).
			mc := cfg.Model
			m, err := model.Build(mc)
			if err != nil {
				errs[r] = err
				return
			}
			optimizer, err := NewOptimizer(cfg.Optimizer, cfg.lr())
			if err != nil {
				errs[r] = err
				return
			}
			lossFn, err := NewLoss(cfg.Loss)
			if err != nil {
				errs[r] = err
				return
			}
			// Round-robin shard.
			var shard []dataset.Sample
			for i := r; i < len(pairs); i += ranks {
				shard = append(shard, pairs[i])
			}
			var rng *tensor.RNG
			if cfg.Shuffle {
				rng = tensor.NewRNG(cfg.Seed + int64(r))
			}
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				if cancellable {
					// Coordinated abort: every local replica follows the
					// coordinator's view so none is left alone in a
					// collective.
					stop := false
					if r == coord {
						if err := ctx.Err(); err != nil {
							cancelErr = err
							stop = true
						}
						for _, ch := range abortCh {
							ch <- stop
						}
					} else {
						stop = <-abortCh[r]
					}
					if stop {
						errs[r] = cancelErr
						return
					}
				}
				if cfg.Schedule != nil {
					optimizer.SetLR(cfg.Schedule.LRAt(epoch))
				}
				batches := dataset.MiniBatches(len(shard), cfg.BatchSize, rng)
				epochLoss, seen := 0.0, 0
				for _, idx := range batches {
					in, tg := dataset.Gather(shard, idx)
					nn.ZeroGrads(m)
					pred := m.Forward(in)
					l, dPred := lossFn.Eval(pred, tg)
					m.BackwardParams(dPred)
					if cfg.ClipNorm > 0 {
						nn.ClipGradNorm(m, cfg.ClipNorm)
					}
					optimizer.Step(m)
					epochLoss += l * float64(len(idx))
					seen += len(idx)
				}
				// The defining step of the baseline: average the
				// replicas' weights with a global reduction.
				avg := c.Allreduce(nn.FlattenParams(m), mpi.OpSum)
				for i := range avg {
					avg[i] /= float64(ranks)
				}
				if err := nn.UnflattenParams(m, avg); err != nil {
					errs[r] = err
					return
				}
				localMean := epochLoss / float64(seen)
				t.report(Progress{Rank: r, Epoch: epoch, Loss: localMean})
				meanLoss := c.AllreduceScalar(localMean, mpi.OpSum) / float64(ranks)
				if r == 0 {
					history[epoch] = meanLoss
					epochsDone = epoch + 1
				}
			}
			m.SetScratch(nn.NewArena()) // as trainOne: keep the weights, not the activations
			models[r] = m
		})
		if runErr != nil && errs[0] == nil {
			errs[0] = runErr
		}
	})
	for r, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("core: data-parallel rank %d: %w", r, e)
		}
	}
	res.History = history[:epochsDone]
	res.Model = models[0]
	res.CommStats = world.TotalStats()
	return res, nil
}
