package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// f32FrameTol is the serving-path error budget of WithPrecision(F32)
// against the f64 reference, per frame element relative to magnitude.
// Autoregressive rollouts compound the per-step error, so multi-step
// comparisons get a growth factor (see EXPERIMENTS.md).
const f32FrameTol = 5e-4

func frameWithin(t *testing.T, label string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", label, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if d := math.Abs(gd[i]-wd[i]) / (1 + math.Abs(wd[i])); d > tol {
			t.Fatalf("%s[%d] = %g, f64 reference %g (rel %g > %g)", label, i, gd[i], wd[i], d, tol)
		}
	}
}

// TestEnginePrecisionF32PredictWithinBudget compares one-step serving
// on the f32 engine against the f64 reference engine.
func TestEnginePrecisionF32PredictWithinBudget(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	ref, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(e, WithPrecision(nn.F32))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Predict(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	frameWithin(t, "f32 predict", got, want, f32FrameTol)
}

// TestEnginePrecisionPackOncePerEngine asserts the PackedWeights
// economics at the serving layer: engine construction performs every
// weight narrowing (one per parameterized layer per rank model), and
// no session, step or predict afterwards adds any.
func TestEnginePrecisionPackOncePerEngine(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)

	packedLayers := 0
	for _, m := range e.Models {
		for _, l := range m.Layers() {
			if len(l.Params()) > 0 {
				packedLayers++
			}
		}
	}

	base := nn.PackCount()
	eng, err := NewEngine(e, WithPrecision(nn.F32))
	if err != nil {
		t.Fatal(err)
	}
	if d := nn.PackCount() - base; d != int64(packedLayers) {
		t.Fatalf("engine construction packed %d layers, want %d", d, packedLayers)
	}

	if _, err := eng.Predict(context.Background(), ds.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := ses.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ses.Close()
	// A second session exercises the clone pool's allocation path too.
	ses2, err := eng.NewSession(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses2.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	ses2.Close()
	if d := nn.PackCount() - base; d != int64(packedLayers) {
		t.Fatalf("serving re-packed weights: %d narrowings, want %d (pack-once-per-Engine)", d, packedLayers)
	}
}

// TestEngineF32ExchangeModesBitIdentical: the ExchangeMode alias
// selects nothing on an f32 engine either (assertModeSelectsNothing).
func TestEngineF32ExchangeModesBitIdentical(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	assertModeSelectsNothing(t, e, []*tensor.Tensor{ds.Snapshots[0]}, 4, WithPrecision(nn.F32))
}

// TestEngineF32RolloutWithinBudget rolls a few autoregressive steps
// and checks each frame against the f64 reference under a per-step
// growth allowance.
func TestEngineF32RolloutWithinBudget(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	const steps = 4
	run := func(p nn.Precision) []*tensor.Tensor {
		eng, err := NewEngine(e, WithPrecision(p))
		if err != nil {
			t.Fatal(err)
		}
		ses, err := eng.NewSession(context.Background(), ds.Snapshots[0])
		if err != nil {
			t.Fatal(err)
		}
		defer ses.Close()
		var out []*tensor.Tensor
		for k := 0; k < steps; k++ {
			f, err := ses.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
		return out
	}
	want := run(nn.F64)
	got := run(nn.F32)
	for k := 0; k < steps; k++ {
		frameWithin(t, "rollout frame", got[k], want[k], float64(k+1)*f32FrameTol)
	}
}

// TestEngineInvalidPrecisionRejected covers the construction-time
// validation of the option.
func TestEngineInvalidPrecisionRejected(t *testing.T) {
	_, e := trainTinyEnsemble(t, model.ZeroPad, 2, 1)
	if _, err := NewEngine(e, WithPrecision(nn.Precision(7))); err == nil {
		t.Fatal("invalid precision accepted")
	}
}
