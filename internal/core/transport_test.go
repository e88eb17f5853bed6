package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// memRollout rolls the ensemble out over the in-process transport and
// returns the frames plus the session's cumulative CommStats (read
// after Close so Overlap's drained receives are included).
func memRollout(t *testing.T, e *Ensemble, mode ExchangeMode, initials []*tensor.Tensor, steps int) ([]*tensor.Tensor, mpi.CommStats) {
	t.Helper()
	eng, err := NewEngine(e, WithExchangeMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ses, err := eng.NewSession(ctx, initials...)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*tensor.Tensor, 0, steps)
	if err := ses.Run(ctx, steps, func(k int, f *tensor.Tensor) error {
		frames = append(frames, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	return frames, ses.CommStats()
}

// tcpRollout assembles the ensemble's rank count as separate DialTCP
// endpoints (all in this test process), runs one session per endpoint
// concurrently — exactly what N independently launched infer processes
// do — and returns rank 0's frames plus the summed CommStats of all
// endpoints (the cross-process equivalent of the in-process total).
func tcpRollout(t *testing.T, e *Ensemble, mode ExchangeMode, initials []*tensor.Tensor, steps int) ([]*tensor.Tensor, mpi.CommStats) {
	t.Helper()
	ranks := e.Partition.Ranks()
	addrs, err := mpi.ReserveLocalAddrs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*mpi.World, ranks)
	dialErrs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], dialErrs[r] = mpi.DialTCP(mpi.TCPConfig{Rank: r, Peers: addrs, HandshakeTimeout: 20 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range dialErrs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()

	frames := make([]*tensor.Tensor, 0, steps)
	stats := make([]mpi.CommStats, ranks)
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng, err := NewEngine(e, WithExchangeMode(mode), WithWorld(worlds[r]))
			if err != nil {
				errs[r] = err
				return
			}
			ctx := context.Background()
			ses, err := eng.NewSession(ctx, initials...)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = ses.Run(ctx, steps, func(k int, f *tensor.Tensor) error {
				if f != nil {
					frames = append(frames, f) // only rank 0's endpoint sees frames
				}
				return nil
			})
			if cerr := ses.Close(); errs[r] == nil {
				errs[r] = cerr
			}
			stats[r] = ses.CommStats()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d rollout: %v", r, err)
		}
	}
	var total mpi.CommStats
	for _, s := range stats {
		addStats(&total, s)
	}
	return frames, total
}

// assertFramesEqual compares two rollouts bit for bit.
func assertFramesEqual(t *testing.T, label string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("%s: frame %d is not bit-identical (max diff %g)",
				label, k, got[k].Sub(want[k]).AbsMax())
		}
	}
}

// TestRolloutBitIdenticalAcrossTransportsAndModes is the PR's
// acceptance criterion: the same seed and topology must yield
// bit-identical rollout frames across {mem, tcp} × {blocking,
// overlap}, and identical MessagesSent/BytesSent per exchange mode
// across transports (satellite 3). It also pins the Overlap schedule's
// documented traffic shape: same bytes-per-message traffic class,
// strictly no more messages than Blocking.
func TestRolloutBitIdenticalAcrossTransportsAndModes(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	const steps = 4

	memBlock, memBlockStats := memRollout(t, e, Blocking, initials, steps)
	memOver, memOverStats := memRollout(t, e, Overlap, initials, steps)
	tcpBlock, tcpBlockStats := tcpRollout(t, e, Blocking, initials, steps)
	tcpOver, tcpOverStats := tcpRollout(t, e, Overlap, initials, steps)

	assertFramesEqual(t, "mem/overlap vs mem/blocking", memOver, memBlock)
	assertFramesEqual(t, "tcp/blocking vs mem/blocking", tcpBlock, memBlock)
	assertFramesEqual(t, "tcp/overlap vs mem/blocking", tcpOver, memBlock)

	if memBlockStats.MessagesSent != tcpBlockStats.MessagesSent || memBlockStats.BytesSent != tcpBlockStats.BytesSent {
		t.Fatalf("blocking stats differ across transports:\n  mem: %v\n  tcp: %v", memBlockStats, tcpBlockStats)
	}
	if memOverStats.MessagesSent != tcpOverStats.MessagesSent || memOverStats.BytesSent != tcpOverStats.BytesSent {
		t.Fatalf("overlap stats differ across transports:\n  mem: %v\n  tcp: %v", memOverStats, tcpOverStats)
	}
	if memBlockStats.MessagesSent == 0 {
		t.Fatal("blocking rollout sent no messages — halo exchange missing")
	}
	if memOverStats.MessagesSent > memBlockStats.MessagesSent {
		t.Fatalf("overlap sent more messages (%d) than blocking (%d)",
			memOverStats.MessagesSent, memBlockStats.MessagesSent)
	}
}

// TestOverlapBitIdenticalUnevenPartition stresses the tile pipeline on
// an uneven 3×2 partition (block widths 6/5/5 on a 16-point edge),
// where per-rank tile geometries differ and some GEMM spans land in
// the scalar-tail cases that make tiled and whole-frame forwards
// differ — the modes must still agree bit for bit because they run the
// same tiles.
func TestOverlapBitIdenticalUnevenPartition(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 3, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	const steps = 3
	blocking, _ := memRollout(t, e, Blocking, initials, steps)
	overlap, _ := memRollout(t, e, Overlap, initials, steps)
	assertFramesEqual(t, "uneven overlap vs blocking", overlap, blocking)
	for _, f := range blocking {
		if f.HasNaN() {
			t.Fatal("rollout produced NaN")
		}
	}
}

// TestOverlapBitIdenticalTemporalWindow covers the windowed history
// path: tiles crop and channel-stack several frames, only the newest
// of which has in-flight halos.
func TestOverlapBitIdenticalTemporalWindow(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	cfg := tinyCfg()
	cfg.Epochs = 2
	cfg.Model.Strategy = model.NeighborPad
	cfg.TemporalWindow = 3
	cfg.Model.Channels = append([]int(nil), cfg.Model.Channels...)
	cfg.Model.Channels[0] = 3 * ds.Snapshots[0].Dim(0)
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	initials := ds.Snapshots[:3]
	const steps = 3
	blocking, _ := memRollout(t, e, Blocking, initials, steps)
	overlap, _ := memRollout(t, e, Overlap, initials, steps)
	assertFramesEqual(t, "windowed overlap vs blocking", overlap, blocking)
}

// TestOverlapZeroPadNoExchange: strategies without a halo must behave
// identically in both modes (no messages at all) — the overlap knob is
// a no-op there.
func TestOverlapZeroPadNoExchange(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	blocking, bStats := memRollout(t, e, Blocking, initials, 2)
	overlap, oStats := memRollout(t, e, Overlap, initials, 2)
	assertFramesEqual(t, "zero-pad overlap vs blocking", overlap, blocking)
	if bStats.MessagesSent != oStats.MessagesSent {
		t.Fatalf("zero-pad message counts differ: %d vs %d", bStats.MessagesSent, oStats.MessagesSent)
	}
}

// TestBoundWorldExclusiveAndReusable: a WithWorld engine serves one
// session at a time but serves sessions back to back — including after
// an Overlap session whose final-step receives had to be drained.
func TestBoundWorldExclusiveAndReusable(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	world := mpi.NewWorld(e.Partition.Ranks())
	defer world.Close()
	eng, err := NewEngine(e, WithWorld(world), WithExchangeMode(Overlap))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, _ := memRollout(t, e, Blocking, []*tensor.Tensor{ds.Snapshots[0]}, 2)
	for round := 0; round < 3; round++ {
		ses, err := eng.NewSession(ctx, ds.Snapshots[0])
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := eng.NewSession(ctx, ds.Snapshots[0]); err == nil {
			t.Fatal("bound world handed out to two live sessions")
		}
		var last *tensor.Tensor
		if err := ses.Run(ctx, 2, func(k int, f *tensor.Tensor) error { last = f; return nil }); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !last.Equal(ref[1]) {
			t.Fatalf("round %d: bound-world session diverged", round)
		}
		if err := ses.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
	// A world of the wrong size is rejected up front.
	if _, err := NewEngine(e, WithWorld(mpi.NewWorld(3))); err == nil {
		t.Fatal("mis-sized world accepted")
	}
}

// TestDistributedTrainerLocalRanks: a trainer over a distributed world
// trains only the locally hosted ranks, and the union over all
// processes reproduces the single-process Concurrent result bit for
// bit (same per-rank seeds).
func TestDistributedTrainerLocalRanks(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 1
	const ranks = 4
	ref, err := trainParallel(ds, 2, 2, cfg, Concurrent)
	if err != nil {
		t.Fatal(err)
	}

	addrs, err := mpi.ReserveLocalAddrs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ParallelResult, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w, err := mpi.DialTCP(mpi.TCPConfig{Rank: r, Peers: addrs, HandshakeTimeout: 20 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			defer w.Close()
			tr, err := NewTrainer(cfg, WithTopology(2, 2), WithTrainerWorld(w))
			if err != nil {
				errs[r] = err
				return
			}
			rep, err := tr.Train(context.Background(), ds)
			if err != nil {
				errs[r] = err
				return
			}
			results[r] = rep.Parallel
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", r, err)
		}
	}
	for r := 0; r < ranks; r++ {
		res := results[r]
		if res.TrainCommStats.MessagesSent != 0 {
			t.Fatalf("process %d: training communicated", r)
		}
		for q := 0; q < ranks; q++ {
			if q == r {
				if res.Ranks[q].Model == nil {
					t.Fatalf("process %d did not train its own rank", r)
				}
				pa, pb := ref.Ranks[q].Model.Params(), res.Ranks[q].Model.Params()
				for i := range pa {
					if !pa[i].Value.Equal(pb[i].Value) {
						t.Fatalf("rank %d weights differ from single-process training", q)
					}
				}
			} else if res.Ranks[q].Model != nil {
				t.Fatalf("process %d trained remote rank %d", r, q)
			}
		}
	}
}
