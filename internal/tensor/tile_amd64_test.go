//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestShiftedNNIsTapOrderedFMAChain pins the contract of the register
// tiles: every element of the f64 NN product is exactly the FMA chain
// c = fma(a_p, b_p, c) over the taps in order, starting from C (acc) or
// zero, bit for bit — wherever the element falls in a row block or a
// column tile, and in the masked tail. The sweep covers m ∈ 1..9, n ∈
// 1..33 and around the 64-lane mark, K ∈ {1, 3, 5} × pad ∈ {0, K−1},
// and a reduction of 800 taps, longer than the tap table, whose chunks
// must hand C on without changing a bit. Columns of C past n must stay
// untouched.
func TestShiftedNNIsTapOrderedFMAChain(t *testing.T) {
	if !useAVX512 {
		t.Skip("the register tiles need AVX-512")
	}
	g := NewRNG(37)
	var ns []int
	for n := 1; n <= 33; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 63, 64, 65, 100)
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []int{0, k - 1} {
			if k == 1 && pad > 0 {
				continue
			}
			for m := 1; m <= 9; m++ {
				for _, n := range ns {
					for _, acc := range []bool{false, true} {
						checkFMAChain(t, g, 2, m, n, k, pad, acc)
					}
				}
			}
		}
	}
	for _, m := range []int{1, 4, 6} {
		for _, n := range []int{1, 33, 100} {
			for _, acc := range []bool{false, true} {
				checkFMAChain(t, g, 32, m, n, 5, 2, acc) // 32·5² = 800 taps
			}
		}
	}
}

// checkFMAChain runs one f64 ShiftedNN over a zero-padded cin-channel
// image, with A and C in strided panels, against math.FMA in tap order.
func checkFMAChain(t *testing.T, g *RNG, cin, m, n, k, pad int, acc bool) {
	t.Helper()
	const w = 9
	wp := w + 2*pad
	h := max(1, (n+(k-1)*(wp+1)+wp-1)/wp-2*pad)
	hp := h + 2*pad
	xb := make([]float64, cin*hp*wp)
	PadRows(randSlice[float64](g, cin*h*w), cin, h, w, pad, 0, hp, xb)
	tp := Taps{C: cin, K: k, CS: hp * wp, RS: wp}
	taps := tp.rows()
	lda, ldc := taps+3, n+5
	a := randSlice[float64](g, m*lda)
	c := randSlice[float64](g, m*ldc)
	c0 := append([]float64(nil), c...)
	ShiftedNN(m, n, a, lda, xb, tp, c, ldc, acc)

	name := fmt.Sprintf("cin%d m%d n%d k%d pad%d acc=%v", cin, m, n, k, pad, acc)
	for i := 0; i < m; i++ {
		for j := 0; j < ldc; j++ {
			want := c0[i*ldc+j]
			if j < n {
				if !acc {
					want = 0
				}
				walk := tapWalk{Taps: tp}
				for p := 0; p < taps; p++ {
					want = math.FMA(a[i*lda+p], xb[walk.next()+j], want)
				}
			}
			if got := c[i*ldc+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: C[%d,%d] = %v, want %v", name, i, j, got, want)
			}
		}
	}
}

// TestShiftedNNTilingInvariant: on the register tiles an element's bits
// do not depend on its neighbours. Each row of a multi-row product must
// equal that row computed alone, and a product started s columns later
// (so every element moves to another lane of another tile) must equal
// the matching columns of the full one, on both widths.
func TestShiftedNNTilingInvariant(t *testing.T) {
	if !useAVX512 {
		t.Skip("the register tiles need AVX-512")
	}
	bothWidths(t, testShiftedNNTilingInvariant[float64], testShiftedNNTilingInvariant[float32])
}

func testShiftedNNTilingInvariant[T Float](t *testing.T) {
	g := NewRNG(41)
	const cin, h, w, k, pad = 3, 12, 30, 5, 2
	wp, hp := w+2*pad, h+2*pad
	xb := make([]T, cin*hp*wp)
	PadRows(randSlice[T](g, cin*h*w), cin, h, w, pad, 0, hp, xb)
	tp := Taps{C: cin, K: k, CS: hp * wp, RS: wp}
	taps := tp.rows()
	for _, m := range []int{3, 4, 6, 9} {
		for _, n := range []int{7, 64, 100, 301} {
			a := randSlice[T](g, m*taps)
			full := make([]T, m*n)
			ShiftedNN(m, n, a, taps, xb, tp, full, n, false)
			for i := 0; i < m; i++ {
				row := make([]T, n)
				ShiftedNN(1, n, a[i*taps:], taps, xb, tp, row, n, false)
				sameBits(t, fmt.Sprintf("m%d n%d row %d alone", m, n, i), row, full[i*n:][:n])
			}
			for _, s := range []int{1, 5, 33} {
				if s >= n {
					continue
				}
				part := make([]T, m*(n-s))
				ShiftedNN(m, n-s, a, taps, xb[s:], tp, part, n-s, false)
				for i := 0; i < m; i++ {
					sameBits(t, fmt.Sprintf("m%d n%d from column %d", m, n, s), part[i*(n-s):][:n-s], full[i*n+s:][:n-s])
				}
			}
		}
	}
}
