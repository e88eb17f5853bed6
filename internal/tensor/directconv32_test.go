package tensor

import (
	"math"
	"testing"
)

// TestDirectConv32MatchesLowered checks the direct kernel against the
// im2col + GEMM route on the same float32 operands: both are f32
// computations of the same sums, so they must agree to f32 round-off,
// and against shapes that exercise every padding edge case.
func TestDirectConv32MatchesLowered(t *testing.T) {
	g := NewRNG(23)
	cases := []struct{ cin, cout, h, w, k, pad int }{
		{4, 6, 16, 16, 5, 2}, // paper outer layer, same padding
		{6, 4, 9, 33, 5, 2},  // wide row: SIMD interior + edges
		{1, 1, 5, 5, 5, 0},   // valid conv, single output position per row
		{2, 3, 7, 6, 3, 1},
		{3, 2, 6, 7, 7, 3}, // k > 4: grouped taps + remainder
		{2, 2, 5, 5, 1, 0}, // 1x1 kernel: remainder only
		{1, 2, 6, 6, 3, 2}, // pad > (k-1)/2
	}
	for _, tc := range cases {
		x := randSlice[float32](g, tc.cin*tc.h*tc.w)
		wgt := randSlice[float32](g, tc.cout*tc.cin*tc.k*tc.k)
		bias := randSlice[float32](g, tc.cout)
		oh := ConvOutSize(tc.h, tc.k, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.pad)

		direct := make([]float32, tc.cout*oh*ow)
		scratch := make([]float32, DirectConv32ScratchLen(tc.cin, tc.h, tc.w, tc.k, tc.pad))
		DirectConv32(x, tc.cin, tc.h, tc.w, wgt, tc.cout, tc.k, tc.pad, bias, direct, scratch)

		rows := Im2ColRows(tc.cin, tc.k)
		cols := make([]float32, rows*oh*ow)
		Im2Col(x, tc.cin, tc.h, tc.w, tc.k, tc.pad, cols)
		lowered := make([]float32, tc.cout*oh*ow)
		for co := 0; co < tc.cout; co++ {
			out := lowered[co*oh*ow:][:oh*ow]
			for i := range out {
				out[i] = bias[co]
			}
		}
		GemmPanelNN(tc.cout, oh*ow, rows, wgt, rows, cols, oh*ow, lowered, oh*ow, true, 1)

		for i := range direct {
			diff := math.Abs(float64(direct[i]) - float64(lowered[i]))
			if diff > tol32*(1+math.Abs(float64(lowered[i]))) {
				t.Fatalf("%+v: direct[%d] = %g, lowered %g", tc, i, direct[i], lowered[i])
			}
		}
	}
}

// TestDirectConv32ZeroWeightSkip: a kernel with zeroed taps must
// produce the same result as one where those taps contribute zero,
// whether the sweep skips them (the axpy4 fallback) or multiplies them
// (the register tiles).
func TestDirectConv32ZeroWeightSkip(t *testing.T) {
	g := NewRNG(31)
	const cin, cout, h, w, k, pad = 2, 2, 8, 8, 5, 2
	x := randSlice[float32](g, cin*h*w)
	wgt := randSlice[float32](g, cout*cin*k*k)
	for i := 0; i < len(wgt); i += 3 {
		wgt[i] = 0
	}
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	got := make([]float32, cout*oh*ow)
	scratch := make([]float32, DirectConv32ScratchLen(cin, h, w, k, pad))
	DirectConv32(x, cin, h, w, wgt, cout, k, pad, nil, got, scratch)

	rows := Im2ColRows(cin, k)
	cols := make([]float32, rows*oh*ow)
	Im2Col(x, cin, h, w, k, pad, cols)
	want := make([]float32, cout*oh*ow)
	GemmPanelNN(cout, oh*ow, rows, wgt, rows, cols, oh*ow, want, oh*ow, false, 1)
	closeSlices(t, "DirectConv32 zero-skip", got, widen(want), tol32)
}
