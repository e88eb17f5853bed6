package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestMetricsPerfectPrediction(t *testing.T) {
	g := tensor.NewRNG(1)
	x := tensor.Uniform(g, 0.5, 2, 3, 4, 4)
	m := Compute(x.Clone(), x)
	if m.MAPE != 0 || m.MSE != 0 || m.MAE != 0 || m.RMSE != 0 || m.Linf != 0 {
		t.Fatalf("nonzero error for perfect prediction: %v", m)
	}
	if m.R2 != 1 {
		t.Fatalf("R2 = %g, want 1", m.R2)
	}
}

func TestMetricsKnownValues(t *testing.T) {
	pred := tensor.FromSlice([]float64{1.1, 2.2}, 2)
	tgt := tensor.FromSlice([]float64{1.0, 2.0}, 2)
	m := Compute(pred, tgt)
	wantMAPE := 100.0 / 2 * (0.1/1.0 + 0.2/2.0)
	if math.Abs(m.MAPE-wantMAPE) > 1e-9 {
		t.Fatalf("MAPE = %g, want %g", m.MAPE, wantMAPE)
	}
	wantMSE := (0.01 + 0.04) / 2
	if math.Abs(m.MSE-wantMSE) > 1e-12 {
		t.Fatalf("MSE = %g, want %g", m.MSE, wantMSE)
	}
	if math.Abs(m.Linf-0.2) > 1e-12 {
		t.Fatalf("Linf = %g", m.Linf)
	}
	if math.Abs(m.RMSE-math.Sqrt(wantMSE)) > 1e-12 {
		t.Fatalf("RMSE = %g", m.RMSE)
	}
	if m.String() == "" {
		t.Fatalf("empty String")
	}
}

func TestMetricsZeroTargetGuard(t *testing.T) {
	pred := tensor.FromSlice([]float64{0.1}, 1)
	tgt := tensor.FromSlice([]float64{0}, 1)
	m := Compute(pred, tgt)
	if math.IsInf(m.MAPE, 0) || math.IsNaN(m.MAPE) {
		t.Fatalf("MAPE at zero target not finite: %g", m.MAPE)
	}
}

func TestPerChannelSeparation(t *testing.T) {
	// Channel 0 perfect, channel 1 off by a constant.
	pred := tensor.New(2, 2, 2)
	tgt := tensor.New(2, 2, 2)
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			pred.Set(1, 0, j, i)
			tgt.Set(1, 0, j, i)
			pred.Set(2.5, 1, j, i)
			tgt.Set(2.0, 1, j, i)
		}
	}
	ms := PerChannel(pred, tgt)
	if len(ms) != 2 {
		t.Fatalf("channels = %d", len(ms))
	}
	if ms[0].MSE != 0 {
		t.Fatalf("channel 0 should be perfect: %v", ms[0])
	}
	if math.Abs(ms[1].MSE-0.25) > 1e-12 || math.Abs(ms[1].MAPE-25) > 1e-9 {
		t.Fatalf("channel 1 metrics: %v", ms[1])
	}
}

func TestPerChannelNCHWMatchesCHW(t *testing.T) {
	g := tensor.NewRNG(2)
	p3 := tensor.Uniform(g, 0.5, 2, 3, 4, 5)
	t3 := tensor.Uniform(g, 0.5, 2, 3, 4, 5)
	m3 := PerChannel(p3, t3)
	p4 := p3.Reshape(1, 3, 4, 5)
	t4 := t3.Reshape(1, 3, 4, 5)
	m4 := PerChannel(p4, t4)
	for c := range m3 {
		if math.Abs(m3[c].MSE-m4[c].MSE) > 1e-15 {
			t.Fatalf("CHW vs NCHW mismatch at channel %d", c)
		}
	}
}

// Property: MSE ≥ 0, Linf ≥ MAE, RMSE² ≈ MSE.
func TestQuickMetricInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		p := tensor.Normal(g, 0, 1, 12)
		q := tensor.Normal(g, 0, 1, 12)
		m := Compute(p, q)
		if m.MSE < 0 || m.MAE < 0 || m.MAPE < 0 {
			return false
		}
		if m.Linf+1e-15 < m.MAE {
			return false
		}
		return math.Abs(m.RMSE*m.RMSE-m.MSE) < 1e-12*(1+m.MSE)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	Compute(tensor.New(2), tensor.New(3))
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.Add("1", "2")
	tb.Add("333", "4")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Fatalf("table output missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong cell count must panic")
		}
	}()
	tb.Add("only-one")
}

func TestScalingTable(t *testing.T) {
	var s ScalingTable
	s.Add(1, 100)
	s.Add(4, 25)
	s.Add(16, 7)
	if math.Abs(s.Speedup(0)-1) > 1e-12 {
		t.Fatalf("Speedup(0) = %g", s.Speedup(0))
	}
	if math.Abs(s.Speedup(1)-4) > 1e-12 || math.Abs(s.Efficiency(1)-1) > 1e-12 {
		t.Fatalf("P=4: speedup %g eff %g", s.Speedup(1), s.Efficiency(1))
	}
	if eff := s.Efficiency(2); eff < 0.89 || eff > 0.9 {
		t.Fatalf("P=16 efficiency = %g", eff)
	}
	out := s.Render("scaling").String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "16") {
		t.Fatalf("render:\n%s", out)
	}
}
