// Command infer loads the per-rank checkpoints written by cmd/train
// and serves the §III parallel inference through the Engine/Session
// API: a streaming autoregressive rollout with point-to-point halo
// exchange, validated step by step against the solver's own
// trajectory. Frames are scored and discarded as they are produced
// (O(1) memory in the rollout depth), and Ctrl-C cancels the session
// within one step.
//
// Usage:
//
//	infer -data data.gob -ckpt ckpt -steps 10
//
// With -transport tcp the process joins a multi-process mpi world
// (normally via cmd/mpirun, which appends -rank and -peers); each
// process then computes only its own rank's subdomain and the process
// hosting rank 0 scores and prints the rollout:
//
//	mpirun -n 4 -- infer -data data.gob -ckpt ckpt -steps 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("infer: ")

	var (
		dataPath  = flag.String("data", "data.gob", "dataset the model was trained on")
		ckptDir   = flag.String("ckpt", "ckpt", "checkpoint directory from cmd/train")
		steps     = flag.Int("steps", 10, "rollout depth")
		startAt   = flag.Int("start", -1, "snapshot index to start from (-1 = first validation snapshot)")
		trainFrac = flag.Float64("trainfrac", 2.0/3.0, "train fraction used at training time")
		network   = flag.String("network", "ethernet", "virtual network model: ethernet | infiniband | none")
		workers   = flag.Int("workers", 1, "intra-layer parallelism of the convolution kernels (results are bit-identical for any value)")
		precision = flag.String("precision", "f64", "compute precision: f64 (reference, bit-reproducible) | f32 (faster, within documented error budget)")
		transport = flag.String("transport", "mem", "mpi transport: mem (in-process) | tcp (multi-process; see cmd/mpirun)")
		tcpRank   = flag.Int("rank", 0, "this process's rank in the tcp world")
		worldSize = flag.Int("world-size", 0, "expected tcp world size (0 = len(peers); checked against -peers)")
		peersFlag = flag.String("peers", "", "comma-separated host:port of every rank, in rank order (tcp transport)")

		chaosSpec   = flag.String("chaos", "", "fault-injection rules, e.g. 'delay:*>*:d=2ms:p=0.5,drop:1>0:p=0.3' (kinds: delay|jitter|drop|dup|partition; testing only)")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for the deterministic chaos fault schedule")
		chaosRecvTO = flag.Duration("chaos-recv-timeout", 5*time.Second, "receive deadline under chaos: a starved rank fails stop instead of hanging")
	)
	flag.Parse()

	// Ctrl-C cancels the session within one step.
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

	prec, err := nn.ParsePrecision(*precision)
	if err != nil {
		log.Fatal(err)
	}

	e, err := core.LoadEnsemble(*ckptDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ensemble: %dx%d ranks on %dx%d grid, strategy %v\n",
		e.Partition.Px, e.Partition.Py, e.Partition.Nx, e.Partition.Ny, e.ModelCfg.Strategy)

	start := *startAt
	if start < 0 {
		start = int(float64(nds.Len()) * *trainFrac)
	}
	if start+*steps >= nds.Len() {
		log.Fatalf("rollout of %d steps from snapshot %d exceeds dataset length %d", *steps, start, nds.Len())
	}

	var nm *mpi.NetModel
	switch *network {
	case "ethernet":
		nm = mpi.ClusterEthernet()
	case "infiniband":
		nm = mpi.ClusterInfiniband()
	case "none":
	default:
		log.Fatalf("unknown network model %q", *network)
	}

	window := e.Window
	if window < 1 {
		window = 1
	}
	if start-window+1 < 0 {
		log.Fatalf("start snapshot %d too early for temporal window %d", start, window)
	}

	// The serving path: an immutable engine over the ensemble, one
	// streaming session for this rollout. The per-session knobs never
	// touch the shared models, so any number of infer processes'
	// worth of sessions could share one engine.
	engOpts := []core.EngineOption{
		core.WithWorkers(*workers),
		core.WithNetModel(nm),
		core.WithPrecision(prec),
	}
	var chaos *mpi.ChaosPlan
	if *chaosSpec != "" {
		rules, err := mpi.ParseChaosRules(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		chaos = &mpi.ChaosPlan{Seed: *chaosSeed, RecvTimeout: *chaosRecvTO, Rules: rules}
		fmt.Printf("chaos: %d rule(s), seed %d, recv timeout %v\n", len(rules), chaos.Seed, *chaosRecvTO)
	}
	root := true // does this process host rank 0 (score + print)?
	switch *transport {
	case "mem":
		if chaos != nil {
			engOpts = append(engOpts, core.WithChaos(*chaos))
		}
	case "tcp":
		peers := strings.Split(*peersFlag, ",")
		if *peersFlag == "" || len(peers) < 2 {
			log.Fatal("-transport tcp needs -peers with at least two host:port entries (use cmd/mpirun)")
		}
		if *worldSize != 0 && *worldSize != len(peers) {
			log.Fatalf("-world-size %d does not match %d peers", *worldSize, len(peers))
		}
		if len(peers) != e.Partition.Ranks() {
			log.Fatalf("tcp world of %d processes cannot host the checkpoint's %d ranks (one rank per process)",
				len(peers), e.Partition.Ranks())
		}
		tcpOpts := []mpi.Option{mpi.WithNetModel(nm)}
		if chaos != nil {
			tcpOpts = append(tcpOpts, mpi.WithChaos(*chaos))
		}
		world, err := mpi.DialTCP(mpi.TCPConfig{Rank: *tcpRank, Peers: peers}, tcpOpts...)
		if err != nil {
			log.Fatal(err)
		}
		defer world.Close()
		root = *tcpRank == 0
		fmt.Printf("joined tcp world as rank %d of %d\n", *tcpRank, len(peers))
		engOpts = append(engOpts, core.WithWorld(world))
	default:
		log.Fatalf("unknown transport %q", *transport)
	}
	eng, err := core.NewEngine(e, engOpts...)
	if err != nil {
		log.Fatal(err)
	}
	ses, err := eng.NewSession(ctx, nds.Snapshots[start-window+1:start+1]...)
	if err != nil {
		log.Fatal(err)
	}
	defer ses.Close()

	tbl := stats.NewTable(
		fmt.Sprintf("rollout from snapshot %d (validation region)", start),
		"step", "mape[%]", "mse", "linf", "r2", "halo-msgs")
	var final *tensor.Tensor
	err = ses.Run(ctx, *steps, func(k int, frame *tensor.Tensor) error {
		if frame == nil {
			return nil // a non-root process of a tcp world: compute only
		}
		m := stats.Compute(frame, nds.Snapshots[start+k+1])
		_, halo := ses.LastStepStats()
		tbl.Add(fmt.Sprint(k+1),
			fmt.Sprintf("%.3f", m.MAPE), fmt.Sprintf("%.3e", m.MSE),
			fmt.Sprintf("%.3e", m.Linf), fmt.Sprintf("%.4f", m.R2),
			fmt.Sprint(halo.MessagesSent))
		final = frame // only the last frame is retained
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if root {
		fmt.Print(tbl.String())

		// Per-channel view of the final step (the Fig. 3 comparison).
		per := stats.PerChannel(final, nds.Snapshots[start+*steps])
		ctbl := stats.NewTable("final step per channel", "channel", "mape[%]", "mse", "r2")
		for c, m := range per {
			ctbl.Add(grid.ChannelNames[c], fmt.Sprintf("%.3f", m.MAPE),
				fmt.Sprintf("%.3e", m.MSE), fmt.Sprintf("%.4f", m.R2))
		}
		fmt.Print(ctbl.String())
	}

	comm, halo := ses.CommStats(), ses.HaloCommStats()
	fmt.Printf("communication: %d msgs / %.2f KB total, halo share: %d msgs / %.2f KB",
		comm.MessagesSent, float64(comm.BytesSent)/1e3,
		halo.MessagesSent, float64(halo.BytesSent)/1e3)
	if nm != nil {
		fmt.Printf(", virtual comm time %.4fs", comm.VirtualCommSeconds)
	}
	fmt.Println()
}
