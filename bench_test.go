// This file is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§IV), plus the ablations DESIGN.md
// calls out. Each benchmark prints/reports the quantities the
// corresponding exhibit shows; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// trainBench trains the paper's scheme through the Trainer API (the
// single training entrypoint since the Engine/Session redesign) and
// returns the parallel result.
func trainBench(b *testing.B, ds *dataset.Dataset, px, py int, cfg core.TrainConfig) *core.ParallelResult {
	b.Helper()
	trainer, err := core.NewTrainer(cfg, core.WithTopology(px, py))
	if err != nil {
		b.Fatal(err)
	}
	rep, err := trainer.Train(context.Background(), ds)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Parallel
}

// benchData caches generated datasets across benchmarks (generation
// itself is benchmarked separately).
var benchData struct {
	sync.Mutex
	cache map[string]*dataset.Dataset
}

func getDataset(b *testing.B, n, snaps int) *dataset.Dataset {
	b.Helper()
	benchData.Lock()
	defer benchData.Unlock()
	if benchData.cache == nil {
		benchData.cache = map[string]*dataset.Dataset{}
	}
	key := fmt.Sprintf("%d-%d", n, snaps)
	if d, ok := benchData.cache[key]; ok {
		return d
	}
	raw, err := dataset.Generate(dataset.GenConfig{Euler: euler.DefaultConfig(n), NumSnapshots: snaps})
	if err != nil {
		b.Fatal(err)
	}
	norm, err := dataset.FitMinMax(raw, 0.1, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	d := dataset.NormalizeDataset(raw, norm)
	benchData.cache[key] = d
	return d
}

// -----------------------------------------------------------------------------
// Table I — the CNN architecture: per-layer forward+backward cost.
// -----------------------------------------------------------------------------

// BenchmarkTable1_LayerForwardBackward times each Table-I layer
// (channels 4→6, 6→16, 16→6, 6→4, kernel 5×5, same padding) on a
// 64×64 field, the per-layer cost profile of the paper's network.
// bwd_ms is the Backward share of an op; a second, untimed loop runs
// the dW-only backward (BackwardParams on a one-layer Sequential) to
// split it into dw_ms and dx_ms = bwd_ms − dw_ms.
//
// The cost model: an op is three convolution products (forward, dW and
// dX) of 2·Cin·Cout·K²·H·W FLOPs each. gflops is that count over the
// op's time, and peak_frac is gflops over hostPeakGFLOPS, the rate the
// same kernels reach on an L1-resident problem. Both are ratios, so they
// compare across hosts.
func BenchmarkTable1_LayerForwardBackward(b *testing.B) {
	layers := []struct {
		name    string
		in, out int
	}{
		{"layer1_4to6", 4, 6},
		{"layer2_6to16", 6, 16},
		{"layer3_16to6", 16, 6},
		{"layer4_6to4", 6, 4},
	}
	const k, hw = 5, 64
	peak := hostPeakGFLOPS()
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			g := tensor.NewRNG(1)
			conv := nn.NewConv2D(l.name, g, l.in, l.out, k, 2)
			x := tensor.Normal(g, 0, 1, 1, l.in, hw, hw)
			var bwd, dw time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y := conv.Forward(x)
				t0 := time.Now()
				conv.Backward(y)
				bwd += time.Since(t0)
				nn.ZeroGrads(conv)
			}
			b.StopTimer()
			flops := 3 * 2 * float64(l.in*l.out*k*k*hw*hw)
			gflops := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gflops, "gflops")
			b.ReportMetric(gflops/peak, "peak_frac")
			one := nn.NewSequential(conv)
			for i := 0; i < b.N; i++ {
				y := one.Forward(x)
				t0 := time.Now()
				one.BackwardParams(y)
				dw += time.Since(t0)
				nn.ZeroGrads(one)
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(bwd), "bwd_ms")
			b.ReportMetric(ms(dw), "dw_ms")
			b.ReportMetric(ms(bwd-dw), "dx_ms")
		})
	}
}

// hostPeakGFLOPS calibrates the cost model's ceiling: the float64
// ShiftedNN kernel on a problem that fits in L1 — 4 rows × 64 columns
// over 400 taps of an overlapping 3 KB band — so memory never waits and
// the rate is this host's own FMA throughput through that kernel. It
// returns the best of five timed runs.
var hostPeakGFLOPS = sync.OnceValue(func() float64 {
	const m, n = 4, 64
	tp := tensor.Taps{C: 16, K: 5, CS: 16, RS: 16}
	taps := tp.C * tp.K * tp.K
	g := tensor.NewRNG(1)
	a := tensor.Normal(g, 0, 1, m, taps).Data()
	band := tensor.Normal(g, 0, 1, (tp.C-1)*tp.CS+(tp.K-1)*(tp.RS+1)+n).Data()
	c := make([]float64, m*n)
	const calls = 2000
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			tensor.ShiftedNN(m, n, a, taps, band, tp, c, n, false, 1)
		}
		best = max(best, 2*float64(m*n*taps*calls)/time.Since(t0).Seconds()/1e9)
	}
	return best
})

// BenchmarkTable1_FullNetwork times the whole Table-I stack
// (4 conv layers + leaky ReLUs) forward+backward.
func BenchmarkTable1_FullNetwork(b *testing.B) {
	m, err := model.Build(model.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Normal(tensor.NewRNG(1), 0, 1, 1, grid.NumChannels, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := m.Forward(x)
		m.Backward(y)
		nn.ZeroGrads(m)
	}
}

// -----------------------------------------------------------------------------
// Convolution engine.
// -----------------------------------------------------------------------------

// BenchmarkConvGEMMWorkers measures the Workers knob on the GEMM
// engine's forward pass (Table-I at 128×128). Results are
// bit-identical for any worker count; on a single-core machine the
// higher counts only measure scheduling overhead.
func BenchmarkConvGEMMWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m, err := model.Build(model.PaperConfig())
			if err != nil {
				b.Fatal(err)
			}
			m.SetScratch(nn.NewArena())
			m.SetWorkers(workers)
			x := tensor.Normal(tensor.NewRNG(1), 0, 1, 1, grid.NumChannels, 128, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward(x)
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Fig. 2 — domain decomposition: split/scatter cost and correctness scale.
// -----------------------------------------------------------------------------

// BenchmarkFig2_DecomposeScatter times slicing a full-domain snapshot
// into per-rank halo-extended subdomain tensors, the data motion
// behind Fig. 2's decomposition.
func BenchmarkFig2_DecomposeScatter(b *testing.B) {
	ds := getDataset(b, 64, 4)
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			px, py := mpi.BalancedDims(p)
			part, err := decomp.NewPartition(64, 64, px, py)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parts := part.SplitCHW(ds.Snapshots[0], 2)
				if len(parts) != p {
					b.Fatal("bad split")
				}
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Fig. 3 — one-step prediction accuracy per channel.
// -----------------------------------------------------------------------------

// BenchmarkFig3_AccuracyOneStep trains the paper's scheme on the
// Gaussian-pulse workload and reports the per-channel one-step MAPE
// on validation data as custom benchmark metrics (mape_density_pct,
// mape_pressure_pct, ...). One iteration = the full Fig. 3 pipeline.
func BenchmarkFig3_AccuracyOneStep(b *testing.B) {
	full := getDataset(b, 32, 150)
	train, val, err := full.Split(100)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 25
	cfg.LR = 0.003
	cfg.BatchSize = 4
	cfg.Schedule = opt.Cosine{Base: cfg.LR, Floor: cfg.LR / 30, Total: cfg.Epochs}
	var per []stats.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := trainBench(b, train, 2, 2, cfg)
		eng, err := core.NewEngine(res.Ensemble())
		if err != nil {
			b.Fatal(err)
		}
		pairs := val.Pairs()
		preds := make([]*tensor.Tensor, len(pairs))
		tgts := make([]*tensor.Tensor, len(pairs))
		for k, pr := range pairs {
			preds[k], err = eng.Predict(context.Background(), pr.Input)
			if err != nil {
				b.Fatal(err)
			}
			tgts[k] = pr.Target
		}
		per = stats.PerChannel(tensor.Stack(preds), tensor.Stack(tgts))
	}
	b.StopTimer()
	names := []string{"density", "pressure", "velx", "vely"}
	for c, m := range per {
		b.ReportMetric(m.MAPE, "mape_"+names[c]+"_pct")
		b.ReportMetric(m.R2, "r2_"+names[c])
	}
}

// -----------------------------------------------------------------------------
// Fig. 4 — strong scaling of training time.
// -----------------------------------------------------------------------------

// BenchmarkFig4_StrongScaling measures the critical-path training time
// for P = 1, 4, 16, 64 ranks on a fixed workload (64×64 grid), the
// strong-scaling study of Fig. 4. Speedup and efficiency relative to
// P = 1 are reported as custom metrics by the P > 1 cases (computed
// against the P = 1 case run in the same invocation).
func BenchmarkFig4_StrongScaling(b *testing.B) {
	ds := getDataset(b, 64, 20)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 1
	var t1 float64
	for _, p := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			px, py := mpi.BalancedDims(p)
			var crit float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := trainBench(b, ds, px, py, cfg)
				crit = res.CriticalPathSeconds
				if res.TrainCommStats.MessagesSent != 0 {
					b.Fatal("training communicated")
				}
			}
			b.StopTimer()
			b.ReportMetric(crit, "crit_path_s")
			if p == 1 {
				t1 = crit
			} else if t1 > 0 && crit > 0 {
				speedup := t1 / crit
				b.ReportMetric(speedup, "speedup")
				b.ReportMetric(speedup/float64(p), "efficiency")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// §IV-B — error accumulation over rollout depth.
// -----------------------------------------------------------------------------

// BenchmarkRollout_ErrorAccumulation trains once, then benchmarks the
// parallel rollout and reports the relative error at depths 1 and 8
// (rel_err_step1/8 = 1 - R²), the §IV-B accuracy-drop observation.
func BenchmarkRollout_ErrorAccumulation(b *testing.B) {
	full := getDataset(b, 32, 150)
	train, _, err := full.Split(100)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 40
	cfg.Loss = "mse"
	cfg.LR = 0.003
	cfg.BatchSize = 4
	cfg.Model.Strategy = model.NeighborPad
	res := trainBench(b, train, 2, 2, cfg)
	eng, err := core.NewEngine(res.Ensemble())
	if err != nil {
		b.Fatal(err)
	}
	const depth = 8
	const start = 100
	ctx := context.Background()
	var r1, r8 float64
	var haloMsgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses, err := eng.NewSession(ctx, full.Snapshots[start])
		if err != nil {
			b.Fatal(err)
		}
		err = ses.Run(ctx, depth, func(k int, frame *tensor.Tensor) error {
			switch k {
			case 0:
				r1 = 1 - stats.Compute(frame, full.Snapshots[start+1]).R2
			case depth - 1:
				r8 = 1 - stats.Compute(frame, full.Snapshots[start+depth]).R2
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		haloMsgs = ses.HaloCommStats().MessagesSent
		ses.Close()
	}
	b.StopTimer()
	b.ReportMetric(r1, "rel_err_step1")
	b.ReportMetric(r8, "rel_err_step8")
	b.ReportMetric(float64(haloMsgs), "halo_msgs")
}

// -----------------------------------------------------------------------------
// §I / [4] — data-parallel weight-averaging baseline.
// -----------------------------------------------------------------------------

// BenchmarkBaseline_DataParallel benchmarks the Viviani-style baseline
// and reports its training communication volume (ours is zero by
// construction) and final loss.
func BenchmarkBaseline_DataParallel(b *testing.B) {
	full := getDataset(b, 32, 60)
	train, _, err := full.Split(40)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.Loss = "mse"
	trainer, err := core.NewTrainer(cfg, core.WithDataParallel(4))
	if err != nil {
		b.Fatal(err)
	}
	var res *core.DataParallelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := trainer.Train(context.Background(), train)
		if err != nil {
			b.Fatal(err)
		}
		res = rep.DataParallel
	}
	b.StopTimer()
	b.ReportMetric(float64(res.CommStats.MessagesSent), "train_msgs")
	b.ReportMetric(float64(res.CommStats.BytesSent)/1e6, "train_MB")
	b.ReportMetric(res.FinalLoss(), "final_loss")
}

// -----------------------------------------------------------------------------
// §III ablation — the four dimension-matching strategies.
// -----------------------------------------------------------------------------

// BenchmarkAblation_PaddingStrategies trains each §III strategy with
// the same budget and reports its one-step validation MSE (where the
// strategy supports reassembled predictions) and training time.
func BenchmarkAblation_PaddingStrategies(b *testing.B) {
	full := getDataset(b, 40, 120)
	train, val, err := full.Split(80)
	if err != nil {
		b.Fatal(err)
	}
	strategies := []model.Strategy{model.ZeroPad, model.NeighborPad, model.InnerCrop, model.TransposeConv}
	for _, strat := range strategies {
		b.Run(strat.String(), func(b *testing.B) {
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 10
			cfg.Loss = "mse"
			cfg.LR = 0.003
			cfg.BatchSize = 4
			cfg.Model.Strategy = strat
			// All-valid stacks need ≥17-point blocks: use 1x2 on 40.
			px, py := 2, 2
			if cfg.Model.MinInputSize() > 10 {
				px, py = 1, 2
			}
			var res *core.ParallelResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = trainBench(b, train, px, py, cfg)
			}
			b.StopTimer()
			b.ReportMetric(res.CriticalPathSeconds, "crit_path_s")
			b.ReportMetric(res.Ranks[0].FinalLoss(), "train_loss")
			if strat != model.InnerCrop {
				eng, err := core.NewEngine(res.Ensemble())
				if err != nil {
					b.Fatal(err)
				}
				pred, err := eng.Predict(context.Background(), val.Pairs()[0].Input)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Compute(pred, val.Pairs()[0].Target).MSE, "val_mse")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// §II ablations — optimizer and loss choices.
// -----------------------------------------------------------------------------

// BenchmarkAblation_Optimizers compares the §II optimizer candidates
// under an equal budget; the paper reports ADAM "to have the best
// performance in our case".
func BenchmarkAblation_Optimizers(b *testing.B) {
	full := getDataset(b, 32, 60)
	train, _, err := full.Split(40)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"adam", "sgd", "momentum", "rmsprop"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 8
			cfg.Loss = "mse"
			cfg.Optimizer = name
			cfg.LR = 0.003
			if name == "sgd" || name == "momentum" {
				cfg.LR = 0.05 // plain gradient methods need a larger step
			}
			var res *core.ParallelResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = trainBench(b, train, 2, 2, cfg)
			}
			b.StopTimer()
			b.ReportMetric(res.Ranks[0].FinalLoss(), "train_loss")
		})
	}
}

// BenchmarkAblation_Losses compares the §II loss candidates. The paper
// argues MAPE suits data whose channels span different magnitudes; the
// reported metric is the validation MAPE (computed identically for all
// training losses so they are comparable).
func BenchmarkAblation_Losses(b *testing.B) {
	full := getDataset(b, 32, 150)
	train, val, err := full.Split(100)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"mape", "mse", "mae", "smape", "huber"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 10
			cfg.Loss = name
			cfg.LR = 0.003
			cfg.BatchSize = 4
			var res *core.ParallelResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = trainBench(b, train, 2, 2, cfg)
			}
			b.StopTimer()
			eng, err := core.NewEngine(res.Ensemble())
			if err != nil {
				b.Fatal(err)
			}
			pred, err := eng.Predict(context.Background(), val.Pairs()[0].Input)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.Compute(pred, val.Pairs()[0].Target).MAPE, "val_mape_pct")
		})
	}
}

// -----------------------------------------------------------------------------
// §III — halo-exchange cost (inference communication).
// -----------------------------------------------------------------------------

// BenchmarkHaloExchange times one parallel inference step including
// the two-phase point-to-point halo exchange, across process grids,
// and reports the per-step message count and volume.
func BenchmarkHaloExchange(b *testing.B) {
	ds := getDataset(b, 64, 4)
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			px, py := mpi.BalancedDims(p)
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.Model.Strategy = model.NeighborPad
			res := trainBench(b, ds, px, py, cfg)
			eng, err := core.NewEngine(res.Ensemble(), core.WithNetModel(mpi.ClusterEthernet()))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var halo, comm mpi.CommStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ses, err := eng.NewSession(ctx, ds.Snapshots[0])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ses.Step(ctx); err != nil {
					b.Fatal(err)
				}
				comm, halo = ses.LastStepStats()
				ses.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(halo.MessagesSent), "halo_msgs")
			b.ReportMetric(float64(halo.BytesSent)/1e3, "halo_KB")
			b.ReportMetric(comm.VirtualCommSeconds, "virt_comm_s")
		})
	}
}

// -----------------------------------------------------------------------------
// §III / DESIGN.md §8 — rollout throughput per transport.
// -----------------------------------------------------------------------------

// BenchmarkRolloutTransport measures rollout throughput (steps/s) over
// both transports: the in-process channel transport and the TCP
// transport with every rank a separate localhost endpoint (sockets,
// framing, reader/writer goroutines — everything but the process
// boundary). Frames are bit-identical across the two cells (asserted
// by TestRolloutBitIdenticalAcrossTransportsAndModes), so the gap is
// what the wire costs a step. scripts/bench.sh snapshots both cells
// into BENCH_baseline.json.
func BenchmarkRolloutTransport(b *testing.B) {
	ds := getDataset(b, 64, 8)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Model.Strategy = model.NeighborPad
	res := trainBench(b, ds, 2, 2, cfg)
	ens := res.Ensemble()
	const depth = 8
	ctx := context.Background()
	reportSteps := func(b *testing.B) {
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(depth*b.N)/secs, "steps_per_s")
		}
	}

	b.Run("mem", func(b *testing.B) {
		eng, err := core.NewEngine(ens)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ses, err := eng.NewSession(ctx, ds.Snapshots[0])
			if err != nil {
				b.Fatal(err)
			}
			if err := ses.Run(ctx, depth, nil); err != nil {
				b.Fatal(err)
			}
			ses.Close()
		}
		reportSteps(b)
	})
	b.Run("tcp", func(b *testing.B) {
		ranks := ens.Partition.Ranks()
		addrs, err := mpi.ReserveLocalAddrs(ranks)
		if err != nil {
			b.Fatal(err)
		}
		worlds := make([]*mpi.World, ranks)
		engines := make([]*core.Engine, ranks)
		var wg sync.WaitGroup
		dialErrs := make([]error, ranks)
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				worlds[r], dialErrs[r] = mpi.DialTCP(mpi.TCPConfig{Rank: r, Peers: addrs})
			}(r)
		}
		wg.Wait()
		for r, err := range dialErrs {
			if err != nil {
				b.Fatalf("rank %d: %v", r, err)
			}
		}
		defer func() {
			for _, w := range worlds {
				w.Close()
			}
		}()
		for r := 0; r < ranks; r++ {
			engines[r], err = core.NewEngine(ens, core.WithWorld(worlds[r]))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make([]error, ranks)
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ses, err := engines[r].NewSession(ctx, ds.Snapshots[0])
					if err != nil {
						errs[r] = err
						return
					}
					errs[r] = ses.Run(ctx, depth, nil)
					if cerr := ses.Close(); errs[r] == nil {
						errs[r] = cerr
					}
				}(r)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		reportSteps(b)
	})
}

// -----------------------------------------------------------------------------
// DESIGN.md §13 — float32 serving path vs the float64 reference.
// -----------------------------------------------------------------------------

// BenchmarkPrecisionRollout measures what core.WithPrecision(nn.F32)
// buys on the BenchmarkRolloutTransport/mem shapes: the same
// trained 2×2 NeighborPad ensemble, the same 8-step in-process
// rollout, once per precision. The f32 cell reports speedup_vs_f64
// (per-op time ratio against the f64 cell run in the same
// invocation); frames agree to the EXPERIMENTS.md error budget
// (asserted by core.TestEngineF32RolloutWithinBudget, not here).
// scripts/bench.sh snapshots steps_per_s for both cells into
// BENCH_baseline.json.
func BenchmarkPrecisionRollout(b *testing.B) {
	ds := getDataset(b, 64, 8)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Model.Strategy = model.NeighborPad
	res := trainBench(b, ds, 2, 2, cfg)
	ens := res.Ensemble()
	const depth = 8
	ctx := context.Background()
	var f64PerOp float64
	for _, prec := range []nn.Precision{nn.F64, nn.F32} {
		b.Run(prec.String(), func(b *testing.B) {
			eng, err := core.NewEngine(ens, core.WithPrecision(prec))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ses, err := eng.NewSession(ctx, ds.Snapshots[0])
				if err != nil {
					b.Fatal(err)
				}
				if err := ses.Run(ctx, depth, nil); err != nil {
					b.Fatal(err)
				}
				ses.Close()
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(depth*b.N)/secs, "steps_per_s")
			}
			if prec == nn.F64 {
				f64PerOp = perOp
			} else if f64PerOp > 0 && perOp > 0 {
				b.ReportMetric(f64PerOp/perOp, "speedup_vs_f64")
			}
		})
	}
}

// BenchmarkPredictCodec gates the HTTP predict path's tensor codec
// (DESIGN.md §9) on the body the end-to-end benchmark posts: one
// 4×128×128 state with full mantissas, 1.26 MB of JSON. decode is a
// request body to a PredictRequest, encode a frame to response bytes
// in a reused buffer. Each cell reports speedup_vs_encoding_json
// against the standard library doing the same job, timed here outside
// the cells: its allocation count depends on pool and collector state,
// so a row of its own would make the allocs_per_op gate flaky.
// scripts/bench.sh snapshots requests_per_s and allocs_per_op (both
// deterministic counts: the codec has no pool of its own) into
// BENCH_baseline.json.
func BenchmarkPredictCodec(b *testing.B) {
	state := tensor.Uniform(tensor.NewRNG(1), 0.1, 0.9, grid.NumChannels, 128, 128)
	wire := serve.NewTensorJSON(state)
	body, err := json.Marshal(serve.PredictRequest{States: []serve.TensorJSON{wire}})
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	buf := make([]byte, 0, 2<<20)
	for _, cell := range []struct {
		name       string
		codec, std func() error
	}{
		{"decode",
			func() error { _, err := serve.DecodePredictRequest(body); return err },
			func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(new(serve.PredictRequest)) }},
		{"encode",
			func() (err error) { buf, err = serve.AppendTensorJSON(buf[:0], wire); return err },
			func() error { out.Reset(); return json.NewEncoder(&out).Encode(wire) }},
	} {
		const stdRuns = 5
		start := time.Now()
		for i := 0; i < stdRuns; i++ {
			if err := cell.std(); err != nil {
				b.Fatal(err)
			}
		}
		stdPerOp := time.Since(start).Seconds() / stdRuns
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cell.codec(); err != nil {
					b.Fatal(err)
				}
			}
			if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
				b.ReportMetric(perOp*1e3, "ms/op")
				b.ReportMetric(1/perOp, "requests_per_s")
				b.ReportMetric(stdPerOp/perOp, "speedup_vs_encoding_json")
			}
		})
	}
}

// steadyStateNet builds the whole-frame Table-I network pinned to the
// given precision for the zero-alloc rollout loop: shape-preserving
// (zero-padding strategy), so a predicted frame feeds straight back in.
func steadyStateNet(tb testing.TB, p nn.Precision) *nn.Sequential {
	tb.Helper()
	m, err := model.Build(model.PaperConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.SetPrecision(p); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkSteadyStateRollout is the zero-alloc contract of the fused
// f32 hot loop as a gated benchmark: an autoregressive whole-frame
// rollout on the Table-I network at 64×64, ping-ponging between two
// preallocated frames via ForwardInto. After the warmup iteration the
// steady state must report allocs_per_op == 0 — the bench-regression
// gate treats any growth from a zero baseline as a failure, and
// TestSteadyStateRolloutZeroAlloc asserts the same contract, at both
// widths, in the ordinary test suite.
func BenchmarkSteadyStateRollout(b *testing.B) {
	m := steadyStateNet(b, nn.F32)
	g := tensor.NewRNG(1)
	x := tensor.Normal(g, 0, 1, 1, grid.NumChannels, 64, 64)
	y := tensor.New(1, grid.NumChannels, 64, 64)
	m.ForwardInto(x, y) // warm the arena and caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardInto(x, y)
		x, y = y, x
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "steps_per_s")
	}
}

// TestSteadyStateRolloutZeroAlloc asserts the benchmark's contract
// outside the bench harness, at both widths, so `go test ./...` catches
// an allocation creeping into the hot loop without anyone running
// benchmarks.
func TestSteadyStateRolloutZeroAlloc(t *testing.T) {
	for _, p := range []nn.Precision{nn.F64, nn.F32} {
		m := steadyStateNet(t, p)
		g := tensor.NewRNG(1)
		x := tensor.Normal(g, 0, 1, 1, grid.NumChannels, 64, 64)
		y := tensor.New(1, grid.NumChannels, 64, 64)
		m.ForwardInto(x, y)
		m.ForwardInto(y, x)
		allocs := testing.AllocsPerRun(20, func() {
			m.ForwardInto(x, y)
			x, y = y, x
		})
		if allocs != 0 {
			t.Fatalf("%v: steady-state rollout step allocates %.1f objects/op, want 0", p, allocs)
		}
	}
}

// -----------------------------------------------------------------------------
// Serving API — concurrent sessions over one engine.
// -----------------------------------------------------------------------------

// BenchmarkSessionConcurrentRollout measures the aggregate rollout
// throughput of 1 vs 4 concurrent Sessions over ONE shared Engine —
// the serving scenario the Engine/Session redesign exists for. Each
// session is an independent 4-step rollout on per-session model
// clones, so the sessions share no mutable state and the only ceiling
// is the hardware: on a 4+-core machine the 4-session case should
// reach ≥2× the single-session steps/s (scripts/bench.sh snapshots
// steps_per_s and the host's CPU count into the bench JSON). On
// fewer cores expect the two cases to tie — a single session's
// per-step world already runs one goroutine per rank, so extra
// sessions only add work, not parallelism, once cores are saturated.
// Isolation/correctness of concurrent sessions is asserted separately
// by TestConcurrentSessionsBitIdentical, not here.
func BenchmarkSessionConcurrentRollout(b *testing.B) {
	ds := getDataset(b, 64, 8)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Model.Strategy = model.NeighborPad
	res := trainBench(b, ds, 2, 2, cfg)
	eng, err := core.NewEngine(res.Ensemble())
	if err != nil {
		b.Fatal(err)
	}
	const depth = 4
	ctx := context.Background()
	for _, sessions := range []int{1, 4} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, sessions)
				for s := 0; s < sessions; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						ses, err := eng.NewSession(ctx, ds.Snapshots[0])
						if err != nil {
							errs[s] = err
							return
						}
						defer ses.Close()
						errs[s] = ses.Run(ctx, depth, nil)
					}(s)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(sessions*depth*b.N)/secs, "steps_per_s")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Serving API — micro-batched request coalescing (DESIGN.md §9).
// -----------------------------------------------------------------------------

// servingEnsemble builds an untrained (but deterministic) ensemble for
// throughput benchmarks: serving cost is independent of the weights,
// so skipping training keeps the harness fast without changing what is
// measured. It shares the construction recipe with the package
// examples (untrainedEnsemble, example_test.go).
func servingEnsemble(b *testing.B, n, px, py int) *core.Ensemble {
	b.Helper()
	ens, err := untrainedEnsemble(n, px, py)
	if err != nil {
		b.Fatal(err)
	}
	return ens
}

// BenchmarkBatcherThroughput measures one-step serving throughput
// (requests/s) on the Table-I architecture over the full 128×128 grid
// at the paper's 8×8 decomposition, comparing the unbatched
// Engine.Predict baseline (sequential, and 16 concurrent callers)
// against the same 16 callers coalesced by a core.Batcher at
// micro-batch caps 1/4/8/16. The batcher cells additionally report
// speedup_vs_sequential (vs the one-caller Predict loop),
// speedup_vs_unbatched (vs the 16 concurrent unbatched callers — the
// apples-to-apples serving baseline, which pays one clone set per
// in-flight request) and the mean achieved batch fill. Batched
// and unbatched frames are bit-identical
// (core.TestBatcherConcurrentBitIdentical); this benchmark measures
// only what the coalescing buys in wall-clock. A request runs the same
// per-rank forward on a pooled clone set alone or in a batch, and both
// paths fan the ranks out over WithWorkers(GOMAXPROCS), so a batch
// saves only the per-request clone-set acquisition and pays the
// batcher's queueing; on one processor the two roughly cancel.
// scripts/bench.sh snapshots requests_per_s into BENCH_baseline.json.
func BenchmarkBatcherThroughput(b *testing.B) {
	const (
		n           = 128
		nStates     = 8
		clients     = 16
		reqsPerIter = 16
	)
	ens := servingEnsemble(b, n, 8, 8)
	g := tensor.NewRNG(3)
	states := make([]*tensor.Tensor, nStates)
	for i := range states {
		states[i] = tensor.Normal(g, 0, 1, grid.NumChannels, n, n)
	}
	workers := runtime.GOMAXPROCS(0)
	newEng := func() *core.Engine {
		eng, err := core.NewEngine(ens, core.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	ctx := context.Background()
	reportRPS := func(b *testing.B, served int) float64 {
		secs := b.Elapsed().Seconds()
		if secs <= 0 {
			return 0
		}
		rps := float64(served) / secs
		b.ReportMetric(rps, "requests_per_s")
		return rps
	}

	var seqRPS, concRPS float64
	b.Run("unbatched/sequential", func(b *testing.B) {
		eng := newEng()
		if _, err := eng.Predict(ctx, states[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < reqsPerIter; r++ {
				if _, err := eng.Predict(ctx, states[r%nStates]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		seqRPS = reportRPS(b, reqsPerIter*b.N)
	})
	b.Run("unbatched/concurrent", func(b *testing.B) {
		eng := newEng()
		if _, err := eng.Predict(ctx, states[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					_, errs[c] = eng.Predict(ctx, states[c%nStates])
				}(c)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		concRPS = reportRPS(b, clients*b.N)
	})
	for _, mb := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("batcher/max=%d", mb), func(b *testing.B) {
			eng := newEng()
			bat, err := core.NewBatcher(eng, core.WithMaxBatch(mb), core.WithMaxDelay(2*time.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			defer bat.Close()
			if _, err := bat.Predict(ctx, states[0]); err != nil {
				b.Fatal(err)
			}
			warm := bat.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, clients)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						_, errs[c] = bat.Predict(ctx, states[c%nStates])
					}(c)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			rps := reportRPS(b, clients*b.N)
			if seqRPS > 0 {
				b.ReportMetric(rps/seqRPS, "speedup_vs_sequential")
			}
			if concRPS > 0 {
				// The apples-to-apples serving comparison: the same 16
				// concurrent clients with coalescing off. Unbatched
				// concurrency pays one clone set per in-flight request
				// and the resulting allocation/cache pressure.
				b.ReportMetric(rps/concRPS, "speedup_vs_unbatched")
			}
			s := bat.Stats()
			s.Requests -= warm.Requests
			s.Batches -= warm.Batches
			b.ReportMetric(s.MeanFill(), "mean_batch_fill")
		})
	}
}

// -----------------------------------------------------------------------------
// Substrate benchmarks — solver and collectives (supporting numbers).
// -----------------------------------------------------------------------------

// BenchmarkEulerSolverStep times one RK4 step of the linearized Euler
// solver per grid size, the cost of generating training data.
func BenchmarkEulerSolverStep(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := euler.NewSolver(euler.DefaultConfig(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkAblation_TemporalWindow compares rollout error growth for a
// single-frame input vs a 3-frame temporal window (the paper's §V
// future-work hypothesis: time-series inputs capture temporal
// connectivity). Reported metrics: relative error (1−R²) at rollout
// depth 6 for each variant.
func BenchmarkAblation_TemporalWindow(b *testing.B) {
	full := getDataset(b, 32, 120)
	train, _, err := full.Split(90)
	if err != nil {
		b.Fatal(err)
	}
	const depth = 6
	for _, window := range []int{1, 3} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 15
			cfg.Loss = "mse"
			cfg.LR = 0.003
			cfg.BatchSize = 4
			cfg.Model.Strategy = model.NeighborPad
			cfg.TemporalWindow = window
			cfg.Model.Channels = append([]int(nil), cfg.Model.Channels...)
			cfg.Model.Channels[0] = window * grid.NumChannels
			var rel float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := trainBench(b, train, 2, 2, cfg)
				eng, err := core.NewEngine(res.Ensemble())
				if err != nil {
					b.Fatal(err)
				}
				const start = 90
				ctx := context.Background()
				ses, err := eng.NewSession(ctx, full.Snapshots[start-window+1:start+1]...)
				if err != nil {
					b.Fatal(err)
				}
				err = ses.Run(ctx, depth, func(k int, frame *tensor.Tensor) error {
					if k == depth-1 {
						rel = 1 - stats.Compute(frame, full.Snapshots[start+depth]).R2
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				ses.Close()
			}
			b.StopTimer()
			b.ReportMetric(rel, "rel_err_step6")
		})
	}
}

// BenchmarkAblation_DecompositionShape compares block (√P×√P) against
// strip (P×1) decompositions at equal rank count: strips have longer
// interfaces, so the halo traffic per inference step is larger.
// Reported: total communication volume of a 4-step rollout.
func BenchmarkAblation_DecompositionShape(b *testing.B) {
	ds := getDataset(b, 64, 8)
	shapes := []struct {
		name   string
		px, py int
	}{
		{"blocks_4x2", 4, 2},
		{"strips_8x1", 8, 1},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.Model.Strategy = model.NeighborPad
			res := trainBench(b, ds, sh.px, sh.py, cfg)
			eng, err := core.NewEngine(res.Ensemble())
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var comm, halo mpi.CommStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ses, err := eng.NewSession(ctx, ds.Snapshots[0])
				if err != nil {
					b.Fatal(err)
				}
				if err := ses.Run(ctx, 4, nil); err != nil {
					b.Fatal(err)
				}
				comm, halo = ses.CommStats(), ses.HaloCommStats()
				ses.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(comm.BytesSent)/1e3, "total_comm_KB")
			b.ReportMetric(float64(halo.BytesSent)/1e3, "rank0_halo_KB")
		})
	}
}

// BenchmarkMPIAllreduce times the recursive-doubling allreduce used by
// the data-parallel baseline, per world size, on a Table-I-sized
// parameter vector.
func BenchmarkMPIAllreduce(b *testing.B) {
	const vecLen = 11032 // Table-I parameter count
	for _, p := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			data := make([]float64, vecLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(p)
				err := w.Run(func(c *mpi.Comm) {
					c.Allreduce(data, mpi.OpSum)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
