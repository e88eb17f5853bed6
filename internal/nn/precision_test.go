package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// f32Tol is the forward error budget of the float32 inference path
// against the float64 reference, relative to magnitude (documented in
// EXPERIMENTS.md).
const f32Tol = 2e-4

// buildPrecisionNet returns a paper-shaped stack exercising both f32
// convolution engines: the 4→6 and 16→6 layers take the direct kernel
// (Cin·Cout·K² ≤ 1024), the 6→16 layer the im2col + GEMM route, and
// the transpose convolution closes the chain.
func buildPrecisionNet(seed int64) *Sequential {
	g := tensor.NewRNG(seed)
	return NewSequential(
		NewConv2D("c1", g, 4, 6, 5, 2),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 6, 16, 5, 2),
		NewLeakyReLU("a2", 0.01),
		NewConv2D("c3", g, 16, 6, 3, 1),
		NewLeakyReLU("a3", 0.01),
		NewConvTranspose2D("d1", g, 6, 4, 3),
	)
}

func maxRelDiff(t *testing.T, label string, got, want []float64, tol float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	worst := 0.0
	for i := range got {
		d := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i]))
		if d > worst {
			worst = d
		}
		if d > tol {
			t.Fatalf("%s[%d] = %g, f64 reference %g (rel %g > %g)", label, i, got[i], want[i], d, tol)
		}
	}
	return worst
}

// TestF32ForwardWithinBudget compares the pinned f32 forward against
// the f64 engine (itself checked against the reference loops) with
// intra-layer parallelism on — the f32 twin of the crosscheck.
func TestF32ForwardWithinBudget(t *testing.T) {
	g := tensor.NewRNG(3)
	x := tensor.Normal(g, 0, 1, 2, 4, 12, 14)
	for _, workers := range []int{1, 3} {
		ref := buildPrecisionNet(7)
		ref.SetWorkers(workers)
		want := ref.Forward(x)

		wantSlow := asReference(buildPrecisionNet(7)).Forward(x)
		maxRelDiff(t, "f64 naive vs gemm", wantSlow.Data(), want.Data(), 1e-12)

		net := buildPrecisionNet(7)
		net.SetWorkers(workers)
		if err := net.SetPrecision(F32); err != nil {
			t.Fatal(err)
		}
		if net.Precision() != F32 {
			t.Fatal("Precision() != F32 after pin")
		}
		got := net.Forward(x)
		if !got.SameShape(want) {
			t.Fatalf("f32 output shape %v, want %v", got.Shape(), want.Shape())
		}
		maxRelDiff(t, "f32 forward", got.Data(), want.Data(), f32Tol)

		// Unpinning restores the reference path bit for bit.
		if err := net.SetPrecision(F64); err != nil {
			t.Fatal(err)
		}
		if back := net.Forward(x); !back.Equal(want) {
			t.Fatal("unpinned forward differs from f64 reference")
		}
	}
}

// TestF32ForwardThenF64TrainingStep is the regression for a conv that
// ran an f32 forward and then panicked in its next float64 Backward:
// after F32 forward → SetPrecision(F64) → Forward → Backward, outputs
// and every gradient match a never-pinned network bit for bit.
func TestF32ForwardThenF64TrainingStep(t *testing.T) {
	x := tensor.Normal(tensor.NewRNG(5), 0, 1, 2, 4, 10, 11)
	ref, net := buildPrecisionNet(11), buildPrecisionNet(11)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	net.Forward(x)
	if err := net.SetPrecision(F64); err != nil {
		t.Fatal(err)
	}

	wantY := ref.Forward(x)
	ZeroGrads(ref)
	wantDX := ref.Backward(wantY.Clone()) // quadratic loss L = ½Σy²
	gotY := net.Forward(x)
	ZeroGrads(net)
	gotDX := net.Backward(gotY.Clone())

	if !gotY.Equal(wantY) || !gotDX.Equal(wantDX) {
		t.Fatal("forward/dx after an f32 excursion differ from a never-pinned network")
	}
	rp, gp := ref.Params(), net.Params()
	for i := range rp {
		if !gp[i].Grad.Equal(rp[i].Grad) {
			t.Fatalf("%s.grad after an f32 excursion differs from a never-pinned network", rp[i].Name)
		}
	}
}

// TestF32BackwardPanics pins the forward-only contract of the float32
// path: Backward straight after an F32-pinned Forward panics — with the
// documented message on the network, and as "Backward before Forward"
// on each layer in it, whose float32 stage leaves nothing to
// differentiate (precision is the Sequential's alone) — and so does
// Backward after unpinning without a fresh Forward.
func TestF32BackwardPanics(t *testing.T) {
	const forwardOnly, noForward = "float32 path is forward-only", "Backward before Forward"
	g := tensor.NewRNG(15)
	x4 := tensor.Normal(g, 0, 1, 1, 4, 8, 8)
	for _, tc := range []struct {
		layer Layer
		x     *tensor.Tensor
		want  string
	}{
		{buildPrecisionNet(17), x4, forwardOnly},
		{NewConv2D("c", g, 4, 3, 3, 1), x4, noForward},
		{NewConvTranspose2D("d", g, 4, 3, 3), x4, noForward},
		{NewLeakyReLU("lrelu", 0.01), x4, noForward},
	} {
		pinned := NewSequential(tc.layer)
		if s, ok := tc.layer.(*Sequential); ok {
			pinned = s
		}
		tc.layer.Forward(tc.x) // a stale f64 cache must not rescue the Backward
		if err := pinned.SetPrecision(F32); err != nil {
			t.Fatal(err)
		}
		y := pinned.Forward(tc.x)
		mustPanicWith(t, tc.layer.Name(), tc.want, func() { tc.layer.Backward(y) })
		if err := pinned.SetPrecision(F64); err != nil {
			t.Fatal(err)
		}
		if _, ok := tc.layer.(*Sequential); !ok {
			mustPanicWith(t, tc.layer.Name(), noForward, func() { tc.layer.Backward(y) })
		}
	}
}

func mustPanicWith(t *testing.T, label, want string, f func()) {
	t.Helper()
	defer func() {
		msg := fmt.Sprint(recover())
		if !containsStr(msg, want) {
			t.Fatalf("%s: panic %q, want one containing %q", label, msg, want)
		}
	}()
	f()
}

// TestF32WorkersBitIdentical asserts the f32 path keeps the kernels'
// determinism contract: results are bit-identical for any worker count.
func TestF32WorkersBitIdentical(t *testing.T) {
	g := tensor.NewRNG(9)
	x := tensor.Normal(g, 0, 1, 3, 4, 12, 12)
	base := buildPrecisionNet(13)
	if err := base.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	want := base.Forward(x)
	for _, workers := range []int{2, 3, 8} {
		net := buildPrecisionNet(13)
		net.SetWorkers(workers)
		if err := net.SetPrecision(F32); err != nil {
			t.Fatal(err)
		}
		if got := net.Forward(x); !got.Equal(want) {
			t.Fatalf("f32 forward differs with %d workers", workers)
		}
	}
}

// TestF32BatchedMatchesBatchOf1 asserts the f32 engines preserve the
// per-image tiling property: a batched forward is bit-identical, image
// for image, to batch-of-1 forwards — on both the direct kernel and
// the GEMM route (the net contains both).
func TestF32BatchedMatchesBatchOf1(t *testing.T) {
	g := tensor.NewRNG(21)
	const n, c, h, w = 3, 4, 9, 13
	x := tensor.Normal(g, 0, 1, n, c, h, w)
	net := buildPrecisionNet(23)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	batched := net.Forward(x)
	oc, ohh, oww := batched.Dim(1), batched.Dim(2), batched.Dim(3)
	single := buildPrecisionNet(23)
	if err := single.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	for in := 0; in < n; in++ {
		xi := tensor.FromSlice(x.Data()[in*c*h*w:(in+1)*c*h*w], 1, c, h, w)
		yi := single.Forward(xi)
		wantRow := batched.Data()[in*oc*ohh*oww : (in+1)*oc*ohh*oww]
		for j, v := range yi.Data() {
			if v != wantRow[j] {
				t.Fatalf("image %d elem %d: batch-of-1 %g, batched %g", in, j, v, wantRow[j])
			}
		}
	}
}

// TestSetPrecisionRejectsUnsupportedLayer pins a net containing a
// layer without a float32 path and expects a named error, with the
// model left on the reference path.
func TestSetPrecisionRejectsUnsupportedLayer(t *testing.T) {
	g := tensor.NewRNG(41)
	net := NewSequential(
		NewConv2D("c", g, 2, 2, 3, 1),
		NewDense("head", g, 8, 4),
	)
	err := net.SetPrecision(F32)
	if err == nil {
		t.Fatal("Dense accepted on the f32 path")
	}
	if net.Precision() != F64 {
		t.Fatal("failed pin left the net in F32")
	}
	if want := "head"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not name the offending layer %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPackCountOncePerPin asserts the PackedWeights economics: the
// first pin narrows each parameterized layer once, clones share the
// packs for free, and only a weight mutation triggers a re-pack.
func TestPackCountOncePerPin(t *testing.T) {
	net := buildPrecisionNet(51)
	const packedLayers = 4 // c1, c2, c3, d1

	base := PackCount()
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	if d := PackCount() - base; d != packedLayers {
		t.Fatalf("first pin packed %d layers, want %d", d, packedLayers)
	}

	// Clones share the master's packs: no new narrowing.
	clone := net.CloneShared()
	if clone.Precision() != F32 {
		t.Fatal("CloneShared dropped the precision pin")
	}
	g := tensor.NewRNG(53)
	x := tensor.Normal(g, 0, 1, 1, 4, 10, 10)
	clone.Forward(x)
	net.Forward(x)
	if d := PackCount() - base; d != packedLayers {
		t.Fatalf("clone forward re-packed: %d narrowings, want %d", d, packedLayers)
	}

	// Mutating the master weights invalidates every pack; the next
	// forward re-narrows (lazily, shared by master and clones).
	sd := StateDict(net)
	if err := LoadStateDict(net, sd); err != nil {
		t.Fatal(err)
	}
	clone.Forward(x)
	net.Forward(x)
	if d := PackCount() - base; d != 2*packedLayers {
		t.Fatalf("after weight swap: %d narrowings, want %d", d, 2*packedLayers)
	}
}

// TestF32PackInvalidationChangesOutput guards against serving stale
// packed weights after a weight swap.
func TestF32PackInvalidationChangesOutput(t *testing.T) {
	net := buildPrecisionNet(61)
	if err := net.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(63)
	x := tensor.Normal(g, 0, 1, 1, 4, 8, 8)
	before := net.Forward(x)
	for _, p := range net.Params() {
		p.Value.ScaleInPlace(1.5)
	}
	invalidatePacks(net)
	after := net.Forward(x)
	if after.Equal(before) {
		t.Fatal("forward unchanged after weight swap — stale packed weights served")
	}
}

// TestForwardIntoZeroAllocSteadyState is the zero-alloc contract of
// the rollout loop, at both widths: once the arena and caches are
// warm, ForwardInto allocates nothing.
func TestForwardIntoZeroAllocSteadyState(t *testing.T) {
	for _, p := range []Precision{F64, F32} {
		net := buildPrecisionNet(71)
		if err := net.SetPrecision(p); err != nil {
			t.Fatal(err)
		}
		g := tensor.NewRNG(73)
		x := tensor.Normal(g, 0, 1, 1, 4, 16, 16)
		dst := tensor.New(1, 4, 18, 18) // the transpose conv grows the frame by K-1
		net.ForwardInto(x, dst)
		net.ForwardInto(x, dst)
		allocs := testing.AllocsPerRun(20, func() {
			net.ForwardInto(x, dst)
		})
		if allocs != 0 {
			t.Fatalf("%v: steady-state ForwardInto allocates %.1f objects/op, want 0", p, allocs)
		}
	}
}

// buildTable1Net is the paper's Table-I network (4→6→16→6→4 channels,
// 5×5 kernels, same padding, leaky ReLU between layers).
func buildTable1Net(seed int64) *Sequential {
	g := tensor.NewRNG(seed)
	return NewSequential(
		NewConv2D("c1", g, 4, 6, 5, 2),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 6, 16, 5, 2),
		NewLeakyReLU("a2", 0.01),
		NewConv2D("c3", g, 16, 6, 5, 2),
		NewLeakyReLU("a3", 0.01),
		NewConv2D("c4", g, 6, 4, 5, 2),
	)
}

// TestTrainingStepAllocs is the allocation contract of a training step
// on the chain: once warm, ZeroGrads + Forward + BackwardParams at F64
// allocate the returned tensor (a header and its data) and nothing else.
func TestTrainingStepAllocs(t *testing.T) {
	net := buildTable1Net(81)
	g := tensor.NewRNG(83)
	x := tensor.Normal(g, 0, 1, 2, 4, 16, 16)
	dy := tensor.Normal(g, 0, 1, 2, 4, 16, 16)
	step := func() {
		ZeroGrads(net)
		net.Forward(x)
		net.BackwardParams(dy)
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs > 2 {
		t.Fatalf("warm training step allocates %.1f objects/op, want ≤ 2 (the returned tensor)", allocs)
	}
}

// TestTrainingStepArenaHighWater bounds what one training step holds
// at once: the arena's high-water mark is no more than the forward
// activations (the input copy and the four convolution outputs —
// LeakyReLU runs in place), two gradient buffers as long as the widest
// of them, and one band buffer with the flipped kernel the widest dX
// sweep reads.
func TestTrainingStepArenaHighWater(t *testing.T) {
	const n, hw = 8, 64
	net := buildTable1Net(85)
	g := tensor.NewRNG(87)
	x := tensor.Normal(g, 0, 1, n, 4, hw, hw)
	dy := tensor.Normal(g, 0, 1, n, 4, hw, hw)
	for range 2 {
		ZeroGrads(net)
		net.Forward(x)
		net.BackwardParams(dy)
	}
	plane := n * hw * hw
	acts := (4 + 6 + 16 + 6 + 4) * plane
	bound := acts + 2*16*plane + convBandFloats + 16*6*5*5
	if peak := net.arena.f64.peak; peak > bound {
		t.Fatalf("arena high-water %d float64s in a training step, bound %d", peak, bound)
	}
}
