// Command train runs the paper's §III parallel training scheme (or
// one of the baselines) on a dataset produced by cmd/datagen, and
// writes one checkpoint per rank. Training runs under a
// signal-cancellable context: Ctrl-C aborts within one epoch instead
// of leaving a half-written checkpoint directory.
//
// Usage:
//
//	train -data data.gob -ranks 4 -epochs 40 -out ckpt
//	train -data data.gob -mode sequential -out ckpt
//	train -data data.gob -mode dataparallel -ranks 4
//
// With -transport tcp the process joins a multi-process mpi world
// (normally via cmd/mpirun, which appends -rank and -peers): each
// process then trains only its own rank's subdomain network and writes
// only that checkpoint, so the same binary runs the Fig. 4 scaling
// study as N real OS processes:
//
//	mpirun -n 4 -- train -data data.gob -ranks 4 -out ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")

	var (
		dataPath   = flag.String("data", "data.gob", "input dataset (from cmd/datagen)")
		mode       = flag.String("mode", "parallel", "parallel | sequential | dataparallel")
		ranks      = flag.Int("ranks", 4, "number of MPI ranks (subdomains or replicas)")
		epochs     = flag.Int("epochs", 40, "training epochs")
		batch      = flag.Int("batch", 8, "mini-batch size (0 = full batch)")
		lr         = flag.Float64("lr", 0.01, "learning rate (paper: 0.01)")
		optName    = flag.String("opt", "adam", "optimizer: adam | sgd | momentum | rmsprop")
		lossName   = flag.String("loss", "mape", "loss: mape | mse | mae | smape | huber")
		strategy   = flag.String("strategy", "zero-pad", "dimension matching: zero-pad | neighbor-pad | inner-crop | transpose-conv")
		trainFrac  = flag.Float64("trainfrac", 2.0/3.0, "fraction of snapshots used for training (paper: 1000/1500)")
		seed       = flag.Int64("seed", 1, "random seed")
		window     = flag.Int("window", 1, "temporal window: stack this many consecutive snapshots as network input (paper §V future work)")
		outDir     = flag.String("out", "ckpt", "model artifact output directory")
		mName      = flag.String("model-name", "", "model name recorded in the artifact manifest (default: the output directory's base name)")
		mVersion   = flag.String("model-version", "", "model version recorded in the artifact manifest (default: v1)")
		concurrent = flag.Bool("concurrent", false, "execute ranks concurrently (goroutines) instead of critical-path timing mode")
		workers    = flag.Int("workers", 1, "intra-layer parallelism of the convolution kernels (results are bit-identical for any value)")
		precision  = flag.String("precision", "f64", "f64 | f32: training always runs f64; f32 verifies after training that the artifact can be served on the float32 path (core.WithPrecision)")
		progress   = flag.Bool("progress", false, "print per-rank per-epoch training losses as they happen")
		transport  = flag.String("transport", "mem", "mpi transport: mem (in-process) | tcp (multi-process; see cmd/mpirun)")
		tcpRank    = flag.Int("rank", 0, "this process's rank in the tcp world")
		worldSize  = flag.Int("world-size", 0, "expected tcp world size (0 = len(peers); checked against -peers)")
		peersFlag  = flag.String("peers", "", "comma-separated host:port of every rank, in rank order (tcp transport)")
	)
	flag.Parse()

	prec, err := nn.ParsePrecision(*precision)
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels training within one epoch (core.Trainer contract).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ds, err := dataset.Load(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	norm, err := dataset.FitMinMax(ds, 0.1, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	nds := dataset.NormalizeDataset(ds, norm)
	nTrain := int(float64(nds.Len()) * *trainFrac)
	train, val, err := nds.Split(nTrain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d snapshots on %dx%d (train %d / val %d)\n",
		ds.Len(), ds.Grid.Nx, ds.Grid.Ny, train.Len(), val.Len())

	strat, err := model.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Workers = *workers
	cfg.Epochs = *epochs
	cfg.BatchSize = *batch
	cfg.LR = *lr
	cfg.Optimizer = *optName
	cfg.Loss = *lossName
	cfg.Seed = *seed
	cfg.Model.Strategy = strat
	cfg.Model.Seed = *seed
	if *window > 1 {
		cfg.TemporalWindow = *window
		cfg.Model.Channels[0] = *window * grid.NumChannels
	}

	opts := []core.TrainerOption{}
	if *progress {
		opts = append(opts, core.WithProgress(func(p core.Progress) {
			fmt.Printf("  rank %d epoch %d: loss %.4g\n", p.Rank, p.Epoch, p.Loss)
		}))
	}

	// Multi-process world: join as one rank over TCP; the trainer then
	// trains only this process's ranks.
	var world *mpi.World
	switch *transport {
	case "mem":
	case "tcp":
		if *mode == "sequential" {
			log.Fatal("sequential mode is single-process; use -transport mem")
		}
		peers := strings.Split(*peersFlag, ",")
		if *peersFlag == "" || len(peers) < 2 {
			log.Fatal("-transport tcp needs -peers with at least two host:port entries (use cmd/mpirun)")
		}
		if *worldSize != 0 && *worldSize != len(peers) {
			log.Fatalf("-world-size %d does not match %d peers", *worldSize, len(peers))
		}
		if len(peers) != *ranks {
			log.Fatalf("tcp world of %d processes cannot host %d ranks (one rank per process)", len(peers), *ranks)
		}
		var err error
		world, err = mpi.DialTCP(mpi.TCPConfig{Rank: *tcpRank, Peers: peers})
		if err != nil {
			log.Fatal(err)
		}
		defer world.Close()
		fmt.Printf("joined tcp world as rank %d of %d\n", *tcpRank, len(peers))
		opts = append(opts, core.WithTrainerWorld(world))
	default:
		log.Fatalf("unknown transport %q", *transport)
	}

	switch *mode {
	case "parallel":
		px, py := mpi.BalancedDims(*ranks)
		execMode := core.CriticalPath
		if *concurrent {
			execMode = core.Concurrent
		}
		fmt.Printf("parallel training on %dx%d ranks, strategy %v, %s/%s, %d epochs (%v mode)\n",
			px, py, strat, *optName, *lossName, *epochs, execMode)
		trainer, err := core.NewTrainer(cfg, append(opts,
			core.WithTopology(px, py), core.WithExecMode(execMode))...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := trainer.Train(ctx, train)
		if err != nil {
			log.Fatal(err)
		}
		res := rep.Parallel
		tbl := stats.NewTable("per-rank results", "rank", "block", "final-loss", "seconds")
		trained := 0
		for _, rr := range res.Ranks {
			if rr.Model == nil {
				continue // a remote process's rank (tcp world)
			}
			trained++
			tbl.Add(fmt.Sprint(rr.Rank), rr.Block.String(),
				fmt.Sprintf("%.4g", rr.FinalLoss()), fmt.Sprintf("%.3f", rr.Seconds))
		}
		fmt.Print(tbl.String())
		if world != nil {
			fmt.Printf("trained %d local rank(s) in %.3fs, training comm: %d msgs\n",
				trained, res.CriticalPathSeconds, res.TrainCommStats.MessagesSent)
		} else {
			fmt.Printf("critical path %.3fs, total compute %.3fs, speedup %.2fx, training comm: %d msgs\n",
				res.CriticalPathSeconds, res.TotalComputeSeconds, res.Speedup(), res.TrainCommStats.MessagesSent)
		}
		if world != nil {
			// A multi-process job writes only this process's rank files
			// into the shared directory — no single process holds every
			// payload, so the manifest is written afterwards with
			// `inspect -ckpt <dir> -migrate` once all ranks have landed.
			if err := saveRankCheckpoints(res, *outDir); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rank checkpoints written to %s/ (run 'inspect -ckpt %s -migrate' after all ranks finish to add the manifest)\n", *outDir, *outDir)
		} else {
			if err := core.SaveModel(res.Ensemble(), *outDir, *mName, *mVersion); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("model artifact written to %s/ (manifest + %d rank payloads)\n", *outDir, len(res.Ranks))
		}
		if prec == nn.F32 {
			for _, rr := range res.Ranks {
				checkF32Readiness(rr.Rank, rr.Model)
			}
			fmt.Println("f32 serving path verified (training ran f64; serve with -precision f32)")
		}

	case "sequential":
		fmt.Printf("sequential whole-domain training, %d epochs\n", *epochs)
		trainer, err := core.NewTrainer(cfg, opts...) // default topology: 1x1
		if err != nil {
			log.Fatal(err)
		}
		rep, err := trainer.Train(ctx, train)
		if err != nil {
			log.Fatal(err)
		}
		rr := &rep.Parallel.Ranks[0]
		fmt.Printf("final loss %.4g in %.3fs\n", rr.FinalLoss(), rr.Seconds)
		ck := model.Snapshot(cfg.Model, rr.Model)
		ck.Px, ck.Py = 1, 1
		ck.Nx, ck.Ny = ds.Grid.Nx, ds.Grid.Ny
		ck.Window = cfg.Window()
		name := *mName
		if name == "" {
			name = filepath.Base(filepath.Clean(*outDir))
		}
		man, err := model.NewManifest(name, *mVersion, []*model.Checkpoint{ck})
		if err != nil {
			log.Fatal(err)
		}
		if err := model.WriteArtifact(*outDir, man, []*model.Checkpoint{ck}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model artifact written to %s/ (manifest + rank0.gob)\n", *outDir)
		if prec == nn.F32 {
			checkF32Readiness(0, rr.Model)
			fmt.Println("f32 serving path verified (training ran f64; serve with -precision f32)")
		}

	case "dataparallel":
		fmt.Printf("data-parallel baseline (weight averaging) on %d replicas, %d epochs\n", *ranks, *epochs)
		trainer, err := core.NewTrainer(cfg, append(opts, core.WithDataParallel(*ranks))...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := trainer.Train(ctx, train)
		if err != nil {
			log.Fatal(err)
		}
		res := rep.DataParallel
		if res.Model != nil { // the process hosting rank 0 (or any in-process run)
			fmt.Printf("final loss %.4g in %.3fs wall\n", res.FinalLoss(), res.WallSeconds)
			if prec == nn.F32 {
				checkF32Readiness(0, res.Model)
				fmt.Println("f32 serving path verified (training ran f64; serve with -precision f32)")
			}
		}
		fmt.Printf("training communication: %d msgs, %.2f MB (the paper's scheme uses none)\n",
			res.CommStats.MessagesSent, float64(res.CommStats.BytesSent)/1e6)

	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// checkF32Readiness probes one trained model's float32 serving path
// (the -precision f32 post-train assertion: training itself always
// runs float64 — the optimizer mutates weights every step, which would
// thrash the packed-weight cache). A nil model (a remote process's
// rank on a tcp world) is skipped.
func checkF32Readiness(rank int, m *nn.Sequential) {
	if m == nil {
		return
	}
	if err := m.CloneShared().SetPrecision(nn.F32); err != nil {
		log.Fatalf("-precision f32: rank %d model cannot serve float32: %v", rank, err)
	}
}

// saveRankCheckpoints writes one checkpoint per locally trained rank
// plus nothing else; the checkpoints carry the partition metadata
// inference needs. In a multi-process job each process contributes its
// own rank's file to the shared directory (legacy layout — migrate to
// an artifact manifest afterwards with cmd/inspect).
func saveRankCheckpoints(res *core.ParallelResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rr := range res.Ranks {
		if rr.Model == nil {
			continue // trained by another process
		}
		ck := model.Snapshot(res.Config.Model, rr.Model)
		ck.Rank = rr.Rank
		ck.Px, ck.Py = res.Partition.Px, res.Partition.Py
		ck.Nx, ck.Ny = res.Partition.Nx, res.Partition.Ny
		ck.Window = res.Config.Window()
		if err := ck.Save(filepath.Join(dir, fmt.Sprintf("rank%d.gob", rr.Rank))); err != nil {
			return err
		}
	}
	return nil
}
