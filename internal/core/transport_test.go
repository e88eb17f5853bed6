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
// returns the frames plus the session's cumulative CommStats.
func memRollout(t *testing.T, e *Ensemble, initials []*tensor.Tensor, steps int, opts ...EngineOption) ([]*tensor.Tensor, mpi.CommStats) {
	t.Helper()
	eng, err := NewEngine(e, opts...)
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
func tcpRollout(t *testing.T, e *Ensemble, initials []*tensor.Tensor, steps int, opts ...EngineOption) ([]*tensor.Tensor, mpi.CommStats) {
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
			eng, err := NewEngine(e, append([]EngineOption{WithWorld(worlds[r])}, opts...)...)
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

// TestRolloutBitIdenticalAcrossTransportsAndModes: the same seed and
// topology must yield bit-identical rollout frames and identical
// MessagesSent/BytesSent over {mem, tcp}. (The mode axis is gone: there
// is one exchange schedule; see assertModeSelectsNothing.)
func TestRolloutBitIdenticalAcrossTransportsAndModes(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	const steps = 4

	mem, memStats := memRollout(t, e, initials, steps)
	tcp, tcpStats := tcpRollout(t, e, initials, steps)
	assertFramesEqual(t, "tcp vs mem", tcp, mem)
	if memStats.MessagesSent != tcpStats.MessagesSent || memStats.BytesSent != tcpStats.BytesSent {
		t.Fatalf("stats differ across transports:\n  mem: %v\n  tcp: %v", memStats, tcpStats)
	}
	if memStats.MessagesSent == 0 {
		t.Fatal("rollout sent no messages — halo exchange missing")
	}
}

// assertModeSelectsNothing pins the contract of the ExchangeMode alias
// kept for bench/: WithExchangeMode(Overlap) changes neither a frame
// nor a message of the rollout. The tests below hold it on the shapes
// where the two schedules once ran different code, and go when the
// alias does.
func assertModeSelectsNothing(t *testing.T, e *Ensemble, initials []*tensor.Tensor, steps int, opts ...EngineOption) []*tensor.Tensor {
	t.Helper()
	run := func(m ExchangeMode) ([]*tensor.Tensor, mpi.CommStats) {
		return memRollout(t, e, initials, steps, append([]EngineOption{WithExchangeMode(m)}, opts...)...)
	}
	blocking, bStats := run(Blocking)
	overlap, oStats := run(Overlap)
	assertFramesEqual(t, "overlap vs blocking", overlap, blocking)
	if bStats != oStats {
		t.Fatalf("traffic differs between modes:\n  blocking: %v\n  overlap: %v", bStats, oStats)
	}
	return blocking
}

// TestOverlapBitIdenticalUnevenPartition: an uneven 3×2 partition
// (block widths 6/5/5 on a 16-point edge).
func TestOverlapBitIdenticalUnevenPartition(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 3, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range assertModeSelectsNothing(t, res.Ensemble(), []*tensor.Tensor{ds.Snapshots[0]}, 3) {
		if f.HasNaN() {
			t.Fatal("rollout produced NaN")
		}
	}
}

// TestOverlapBitIdenticalTemporalWindow: a windowed history.
func TestOverlapBitIdenticalTemporalWindow(t *testing.T) {
	ds := tinyDataset(t, 16, 8)
	cfg := windowCfg(3)
	cfg.Epochs = 2
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	assertModeSelectsNothing(t, res.Ensemble(), ds.Snapshots[:3], 3)
}

// TestOverlapZeroPadNoExchange: a strategy without a halo.
func TestOverlapZeroPadNoExchange(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	assertModeSelectsNothing(t, e, []*tensor.Tensor{ds.Snapshots[0]}, 2)
}

// TestBoundWorldExclusiveAndReusable: a WithWorld engine serves one
// session at a time but serves sessions back to back.
func TestBoundWorldExclusiveAndReusable(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	world := mpi.NewWorld(e.Partition.Ranks())
	defer world.Close()
	eng, err := NewEngine(e, WithWorld(world))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, _ := memRollout(t, e, []*tensor.Tensor{ds.Snapshots[0]}, 2)
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
