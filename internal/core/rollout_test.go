package core

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// trainTinyEnsemble trains a quick ensemble for rollout tests.
func trainTinyEnsemble(t *testing.T, strat model.Strategy, px, py int) (*ParallelResult, *Ensemble) {
	t.Helper()
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	cfg.Model.Strategy = strat
	res, err := trainParallel(ds, px, py, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Ensemble()
}

func TestEnsembleValidate(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	broken := &Ensemble{Partition: e.Partition, Models: e.Models[:2]}
	if err := broken.Validate(); err == nil {
		t.Fatal("wrong model count accepted")
	}
	if err := (&Ensemble{}).Validate(); err == nil {
		t.Fatal("nil partition accepted")
	}
}

func TestPredictOneStepShapes(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	pred, err := predictOneStep(e, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !pred.SameShape(ds.Snapshots[0]) {
		t.Fatalf("prediction shape %v", pred.Shape())
	}
	if pred.HasNaN() {
		t.Fatal("prediction has NaN")
	}
}

func TestRolloutMatchesPredictOneStepFirstStep(t *testing.T) {
	// The first rollout step must agree exactly with the directly
	// sliced one-step prediction: the halo exchange must deliver
	// precisely the data direct slicing reads — including corners.
	ds := tinyDataset(t, 16, 6)
	for _, strat := range []model.Strategy{model.ZeroPad, model.NeighborPad} {
		_, e := trainTinyEnsemble(t, strat, 2, 2)
		direct, err := predictOneStep(e, ds.Snapshots[0])
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		roll, err := rollout(e, 1, nil, ds.Snapshots[0])
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !roll.Steps[0].Equal(direct) {
			t.Fatalf("%v: rollout step 1 != direct one-step (max diff %g)",
				strat, roll.Steps[0].Sub(direct).AbsMax())
		}
	}
}

func TestRolloutHaloCorners(t *testing.T) {
	// 3x3 process grid: the center rank has all four neighbours and
	// its halo corners come from diagonal blocks via the two-phase
	// exchange. Equality with direct slicing proves the corners are
	// right.
	ds := tinyDataset(t, 18, 5)
	cfg := tinyCfg()
	cfg.Epochs = 1
	cfg.Model.Strategy = model.NeighborPad
	res, err := trainParallel(ds, 3, 3, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	direct, err := predictOneStep(e, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	roll, err := rollout(e, 1, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !roll.Steps[0].Equal(direct) {
		t.Fatalf("corner halo data wrong: max diff %g", roll.Steps[0].Sub(direct).AbsMax())
	}
}

func TestRolloutMultiStepAutoregressive(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	roll, err := rollout(e, 3, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Steps) != 3 {
		t.Fatalf("steps = %d", len(roll.Steps))
	}
	for s, st := range roll.Steps {
		if st == nil || st.HasNaN() {
			t.Fatalf("step %d malformed", s)
		}
	}
	// Steps must differ (the network is not the identity).
	if roll.Steps[0].Equal(roll.Steps[2]) {
		t.Fatal("rollout is not evolving")
	}
	// Communication happened (halo + gathers).
	if roll.CommStats.MessagesSent == 0 {
		t.Fatal("no communication recorded for neighbour-pad rollout")
	}
	if roll.HaloCommStats.MessagesSent == 0 {
		t.Fatal("no halo traffic recorded")
	}
}

func TestRolloutZeroPadNoHaloTraffic(t *testing.T) {
	// With the zero-pad strategy the networks need no halo; only the
	// result gathers communicate.
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	roll, err := rollout(e, 2, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if roll.HaloCommStats.MessagesSent != 0 {
		t.Fatalf("zero-pad rollout exchanged halos: %+v", roll.HaloCommStats)
	}
}

func TestRolloutNetModelCharged(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	roll, err := rollout(e, 2, mpi.ClusterEthernet(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if roll.CommStats.VirtualCommSeconds <= 0 {
		t.Fatal("network model charged no virtual time")
	}
}

func TestRolloutRejectsInnerCrop(t *testing.T) {
	ds := tinyDataset(t, 20, 5)
	cfg := tinyCfg()
	cfg.Epochs = 1
	cfg.Model.Strategy = model.InnerCrop
	res, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	if _, err := rollout(e, 1, nil, ds.Snapshots[0]); err == nil {
		t.Fatal("inner-crop rollout accepted")
	}
	if _, err := predictOneStep(e, ds.Snapshots[0]); err == nil {
		t.Fatal("inner-crop one-step accepted")
	}
}

func TestRolloutValidation(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 2)
	if _, err := rollout(e, 0, nil, ds.Snapshots[0]); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := rollout(e, 1, nil, tensor.New(4, 8, 8)); err == nil {
		t.Fatal("wrong-size initial state accepted")
	}
	if _, err := predictOneStep(e, tensor.New(4, 8, 8)); err == nil {
		t.Fatal("wrong-size state accepted")
	}
}

// SerialRollout runs autoregressive inference with a single
// whole-domain network: the P = 1 reference the one-rank parallel
// rollout must reproduce.
func SerialRollout(net *nn.Sequential, cfg model.Config, initial *tensor.Tensor, steps int) ([]*tensor.Tensor, error) {
	if cfg.Strategy == model.InnerCrop {
		return nil, fmt.Errorf("core: inner-crop strategy cannot roll out")
	}
	if steps <= 0 {
		return nil, fmt.Errorf("core: non-positive rollout steps %d", steps)
	}
	c, h, w := initial.Dim(0), initial.Dim(1), initial.Dim(2)
	halo := cfg.Halo()
	state := initial.Clone().Reshape(1, c, h, w)
	net.SetScratch(nn.NewArena())
	out := make([]*tensor.Tensor, steps)
	for s := 0; s < steps; s++ {
		in := state
		if halo > 0 {
			// A single domain has no neighbours: zero-pad, exactly
			// what the subdomain networks see at physical boundaries.
			in = tensor.Pad2D(state, halo)
		}
		state = net.Forward(in)
		out[s] = state.Clone().Reshape(c, h, w)
	}
	return out, nil
}

func TestSerialRollout(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	par, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	seq := &par.Ranks[0]
	steps, err := SerialRollout(seq.Model, cfg.Model, ds.Snapshots[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	for _, s := range steps {
		if !s.SameShape(ds.Snapshots[0]) {
			t.Fatalf("serial rollout shape %v", s.Shape())
		}
	}
	if _, err := SerialRollout(seq.Model, cfg.Model, ds.Snapshots[0], 0); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestParallelSingleRankMatchesSerial(t *testing.T) {
	// A 1x1 "parallel" ensemble must reproduce the serial rollout
	// bit for bit.
	ds := tinyDataset(t, 16, 6)
	cfg := tinyCfg()
	cfg.Epochs = 2
	res, err := trainParallel(ds, 1, 1, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	roll, err := rollout(e, 2, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SerialRollout(res.Ranks[0].Model, cfg.Model, ds.Snapshots[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := range serial {
		if !roll.Steps[s].AllClose(serial[s], 1e-13) {
			t.Fatalf("step %d: parallel 1x1 != serial", s)
		}
	}
}

func TestRolloutErrorGrowsWithDepth(t *testing.T) {
	// §IV-B: "the accumulative error decreases the accuracy" — the
	// error after k steps should generally exceed the one-step error.
	ds := tinyDataset(t, 16, 16)
	cfg := tinyCfg()
	cfg.Epochs = 150
	cfg.Loss = "mse"
	cfg.BatchSize = 4
	res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Ensemble()
	const depth = 10
	roll, err := rollout(e, depth, nil, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	// Use a relative error (1 - R²): the true fields decay over time,
	// so absolute MSE is not comparable across rollout depths. The
	// error of the deepest step must exceed the best step (it dips
	// slightly after step 1 before compounding).
	best, last := 1.0, 0.0
	for k := 0; k < depth; k++ {
		rel := 1 - stats.Compute(roll.Steps[k], ds.Snapshots[k+1]).R2
		if rel < best {
			best = rel
		}
		last = rel
	}
	if last <= best {
		t.Fatalf("error did not accumulate: best %g, final %g", best, last)
	}
}
