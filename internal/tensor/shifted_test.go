package tensor

import (
	"fmt"
	"testing"
)

// TestShiftedSweepsMatchLowered is the differential test of the two
// shifted sweeps against the lowering they replace: for one band of
// output rows, ShiftedNN over the PadRows copy must equal the float64
// product of Im2ColWindow's panel on the valid columns, and ShiftedNT
// over the same copy with dY in the band's full-width layout must equal
// the lowered weight gradient, on both widths. The table covers K ∈
// {1, 3, 5} × pad ∈ {0, 1, K−1}, frames narrower than one SIMD vector,
// bands that start and end mid-frame, Cout ∈ {1, 3, 4, 5, 6, 16} (the
// NT row-block remainders), tap counts ≡ 0–3 mod 4 and reduction tails
// 1–7 mod 8.
func TestShiftedSweepsMatchLowered(t *testing.T) {
	bothWidths(t,
		func(t *testing.T) { testShiftedSweepsMatchLowered[float64](t, tol64) },
		func(t *testing.T) { testShiftedSweepsMatchLowered[float32](t, tol32) })
}

func testShiftedSweepsMatchLowered[T Float](t *testing.T, tol float64) {
	g := NewRNG(29)
	tails := map[int]bool{}
	for _, k := range []int{1, 3, 5} {
		pads := []int{0, 1, k - 1}
		if k == 1 {
			pads = pads[:1]
		}
		for _, pad := range pads {
			// {30, 45}: full-frame spans past one ntBlock slice.
			for _, hw := range [][2]int{{7, 3}, {9, 21}, {6, 37}, {30, 45}} {
				h, w := hw[0], hw[1]
				oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
				if oh <= 0 || ow <= 0 {
					continue
				}
				for _, ch := range [][2]int{{2, 3}, {3, 4}, {1, 5}, {4, 6}, {2, 1}, {3, 16}} {
					for _, band := range [][2]int{{0, oh}, {1, oh - 1}, {oh - 1, oh}} {
						if band[0] >= band[1] {
							continue
						}
						name := fmt.Sprintf("k%d_pad%d_%dx%d_%dto%d_rows%d-%d", k, pad, h, w, ch[0], ch[1], band[0], band[1])
						n := checkShiftedBand[T](t, g, name, ch[0], ch[1], h, w, k, pad, band[0], band[1], tol)
						tails[n%8] = true
					}
				}
			}
		}
	}
	for r := 1; r < 8; r++ {
		if !tails[r] {
			t.Errorf("no case has a reduction tail of %d mod 8", r)
		}
	}
}

// checkShiftedBand runs both sweeps on output rows [oy0, oy1) of one
// random cin×h×w image and compares them with the lowered products. It
// returns the NT reduction length.
func checkShiftedBand[T Float](t *testing.T, g *RNG, name string, cin, cout, h, w, k, pad, oy0, oy1 int, tol float64) int {
	t.Helper()
	ow := ConvOutSize(w, k, pad)
	wp, r := w+2*pad, oy1-oy0
	ckk := cin * k * k
	x := randSlice[T](g, cin*h*w)
	wgt := randSlice[T](g, cout*ckk)
	cols := make([]T, ckk*r*ow)
	Im2ColWindow(x, cin, h, w, k, pad, oy0*ow, oy1*ow, cols)

	xb := make([]T, cin*(r+k-1)*wp)
	PadRows(x, cin, h, w, pad, oy0, oy1+k-1, xb)
	tp := Taps{C: cin, K: k, CS: (r + k - 1) * wp, RS: wp}
	n, ld := (r-1)*wp+ow, r*wp

	// Forward: C starts at 1 and accumulates, as a bias prefill does.
	got := make([]T, cout*ld)
	for i := range got {
		got[i] = 1
	}
	ShiftedNN(cout, n, wgt, ckk, xb, tp, got, ld, true)
	want := naiveNN(cout, r*ow, ckk, widen(wgt), widen(cols))
	for co := 0; co < cout; co++ {
		for y := 0; y < r; y++ {
			wantRow := want[(co*r+y)*ow:][:ow]
			for i := range wantRow {
				wantRow[i]++
			}
			closeSlices(t, name+" ShiftedNN", got[co*ld+y*wp:][:ow], wantRow, tol)
		}
	}

	// Weight gradient: dY in the full-width layout, zeros past ow.
	dy := randSlice[T](g, cout*r*ow)
	dyb := make([]T, cout*ld)
	for co := 0; co < cout; co++ {
		for y := 0; y < r; y++ {
			copy(dyb[co*ld+y*wp:], dy[(co*r+y)*ow:][:ow])
		}
	}
	colsT := make([]float64, r*ow*ckk) // the lowered panel, transposed
	for p := 0; p < ckk; p++ {
		for j := 0; j < r*ow; j++ {
			colsT[j*ckk+p] = float64(cols[p*r*ow+j])
		}
	}
	wantDW := naiveNN(cout, ckk, r*ow, widen(dy), colsT)
	dw := make([]T, cout*ckk)
	ShiftedNT(cout, n, dyb, ld, xb, tp, dw, ckk, false)
	closeSlices(t, name+" ShiftedNT", dw, wantDW, tol)
	return n
}

// TestShiftedBoundsPanic: a band too short for the last tap's slice
// must panic at the call site, not read past the operand.
func TestShiftedBoundsPanic(t *testing.T) {
	tp := Taps{C: 2, K: 3, CS: 20, RS: 5}
	a, c := make([]float64, 2*18), make([]float64, 2*18)
	need := tp.span(8)
	for name, call := range map[string]func(){
		"NN short band": func() { ShiftedNN(2, 8, a, 18, make([]float64, need-1), tp, c, 8, false) },
		"NT short band": func() { ShiftedNT(2, 8, a, 18, make([]float64, need-1), tp, c, 18, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	ShiftedNN(2, 8, a, 18, make([]float64, need), tp, c, 8, false)
}
