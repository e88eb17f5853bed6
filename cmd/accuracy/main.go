// Command accuracy reproduces Fig. 3: train the parallel scheme on
// the Gaussian-pulse workload, predict one step ahead on validation
// snapshots, and report the per-channel agreement between prediction
// and target (density, pressure, velocity-x, velocity-y). It also
// renders coarse ASCII heat maps of the predicted and target pressure
// fields so the agreement is visible without a plotting stack.
//
// Usage:
//
//	accuracy -n 64 -snapshots 300 -epochs 40 -ranks 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/opt"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("accuracy: ")

	var (
		n      = flag.Int("n", 64, "grid points per direction (paper: 256)")
		snaps  = flag.Int("snapshots", 300, "snapshots to generate (paper: 1500); enough for the wave to reflect within the training portion")
		epochs = flag.Int("epochs", 40, "training epochs")
		ranks  = flag.Int("ranks", 4, "number of subdomains/ranks")
		lr     = flag.Float64("lr", 0.003, "learning rate (cosine-annealed)")
		lossN  = flag.String("loss", "mape", "training loss")
		maps   = flag.Bool("maps", true, "print ASCII field maps")
	)
	flag.Parse()

	fmt.Printf("generating %d snapshots on %dx%d...\n", *snaps, *n, *n)
	ds, err := dataset.Generate(dataset.GenConfig{Euler: euler.DefaultConfig(*n), NumSnapshots: *snaps})
	if err != nil {
		log.Fatal(err)
	}
	norm, err := dataset.FitMinMax(ds, 0.1, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	nds := dataset.NormalizeDataset(ds, norm)
	nTrain := nds.Len() * 2 / 3 // paper: 1000 of 1500
	train, val, err := nds.Split(nTrain)
	if err != nil {
		log.Fatal(err)
	}

	px, py := mpi.BalancedDims(*ranks)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.Loss = *lossN
	cfg.LR = *lr
	cfg.BatchSize = 4
	cfg.Schedule = opt.Cosine{Base: *lr, Floor: *lr / 30, Total: *epochs}
	fmt.Printf("training %d nets (%dx%d) for %d epochs with %s loss...\n", *ranks, px, py, *epochs, *lossN)
	trainer, err := core.NewTrainer(cfg, core.WithTopology(px, py))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := trainer.Train(context.Background(), train)
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Parallel
	fmt.Printf("training done: critical path %.2fs, final losses ", res.CriticalPathSeconds)
	for _, rr := range res.Ranks {
		fmt.Printf("%.3g ", rr.FinalLoss())
	}
	fmt.Println()

	// One-step prediction over the validation pairs (Fig. 3 protocol:
	// "input and output data are chosen randomly from the validation
	// data set" — we evaluate all pairs and report the mean, plus maps
	// of one representative pair).
	if val.Len() < 2 {
		log.Fatal("no validation pairs; increase -snapshots")
	}
	per, _, err := core.EvaluateOneStep(rep.Ensemble(), val)
	if err != nil {
		log.Fatal(err)
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Fig. 3 — one-step prediction vs target over %d validation pairs", val.Len()-1),
		"channel", "mape[%]", "mse", "rmse", "linf", "r2")
	for c, m := range per {
		tbl.Add(grid.ChannelNames[c],
			fmt.Sprintf("%.3f", m.MAPE), fmt.Sprintf("%.3e", m.MSE),
			fmt.Sprintf("%.3e", m.RMSE), fmt.Sprintf("%.3e", m.Linf),
			fmt.Sprintf("%.4f", m.R2))
	}
	fmt.Print(tbl.String())

	if *maps {
		// Served through the Engine so the shared ensemble is never
		// mutated.
		eng, err := core.NewEngine(rep.Ensemble())
		if err != nil {
			log.Fatal(err)
		}
		mid := (val.Len() - 1) / 2
		pred, err := eng.Predict(context.Background(), val.Snapshots[mid])
		if err != nil {
			log.Fatal(err)
		}
		pressure := func(frame *tensor.Tensor) *tensor.Tensor {
			return tensor.Channel(frame.Reshape(1, frame.Dim(0), frame.Dim(1), frame.Dim(2)), 0, grid.ChanPressure)
		}
		fmt.Println("\npressure field, target (left) vs prediction (right):")
		lines := viz.SideBySide(
			viz.AsciiMap(pressure(val.Snapshots[mid+1]), 16, 32),
			viz.AsciiMap(pressure(pred), 16, 32),
			"   |   ")
		for _, l := range lines {
			fmt.Println(l)
		}
	}
}
