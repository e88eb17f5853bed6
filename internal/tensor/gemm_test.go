package tensor

import (
	"fmt"
	"math"
	"testing"
)

// naiveNN / naiveTN / naiveNT are the scalar reference products the
// blocked kernels are checked against.
func naiveNN(m, n, k int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func naiveTN(m, n, k int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[p*m+i] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func naiveNT(m, n, k int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = s
		}
	}
	return c
}

// The kernels are generic over the element width, so every test below
// is one generic body run on float64 and float32 (bothWidths). The
// reference is always the float64 naive product on the widened
// operands; tol64/tol32 are the round-off budgets of the two widths
// over the reduction lengths these tests use (k ≤ a few hundred).
const (
	tol64 = 1e-13
	tol32 = 1e-4
)

// bothWidths runs the generic test body on both element widths.
func bothWidths(t *testing.T, f64, f32 func(t *testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

func randSlice[T Float](g *RNG, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(g.NormFloat64())
	}
	return s
}

func widen[T Float](s []T) []float64 {
	d := make([]float64, len(s))
	for i, v := range s {
		d[i] = float64(v)
	}
	return d
}

func closeSlices[T Float](t *testing.T, op string, got []T, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", op, len(got), len(want))
	}
	for i := range got {
		if math.Abs(float64(got[i])-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: [%d] = %g, want %g", op, i, got[i], want[i])
		}
	}
}

func sameBits[T Float](t *testing.T, op string, got, want []T) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %g, want %g", op, i, got[i], want[i])
		}
	}
}

// TestGemmKernelsMatchNaive sweeps dimensions that exercise the 4-way
// unroll remainders, the 2-row NT tiling remainder, and column blocks
// (n > gemmColBlock), for every kernel, with and without accumulation.
func TestGemmKernelsMatchNaive(t *testing.T) {
	bothWidths(t,
		func(t *testing.T) { testGemmKernelsMatchNaive[float64](t, tol64) },
		func(t *testing.T) { testGemmKernelsMatchNaive[float32](t, tol32) })
}

func testGemmKernelsMatchNaive[T Float](t *testing.T, tol float64) {
	g := NewRNG(42)
	dims := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 7, 5},      // all-remainder path
		{4, 8, 8},      // exact unroll multiples
		{5, 2049, 9},   // n spans two column blocks with a 1-wide tail
		{16, 100, 400}, // conv-forward-like shape
		{2, 4097, 4},   // block boundary + even rows
		{7, 33, 1},     // k smaller than the unroll
	}
	for _, d := range dims {
		a := randSlice[T](g, d.m*d.k)
		at := make([]T, d.k*d.m) // aᵀ, [k×m]
		for i := 0; i < d.m; i++ {
			for p := 0; p < d.k; p++ {
				at[p*d.m+i] = a[i*d.k+p]
			}
		}
		b := randSlice[T](g, d.k*d.n)
		bt := make([]T, d.n*d.k) // bᵀ, [n×k]
		for p := 0; p < d.k; p++ {
			for j := 0; j < d.n; j++ {
				bt[j*d.k+p] = b[p*d.n+j]
			}
		}
		want := naiveNN(d.m, d.n, d.k, widen(a), widen(b))

		for _, workers := range []int{1, 3} {
			c := make([]T, d.m*d.n)
			GemmNN(d.m, d.n, d.k, a, b, c, false, workers)
			closeSlices(t, "GemmNN", c, want, tol)

			c = make([]T, d.m*d.n)
			GemmTN(d.m, d.n, d.k, at, b, c, false, workers)
			closeSlices(t, "GemmTN", c, naiveTN(d.m, d.n, d.k, widen(at), widen(b)), tol)

			c = make([]T, d.m*d.n)
			GemmNT(d.m, d.n, d.k, a, bt, c, false, workers)
			closeSlices(t, "GemmNT", c, naiveNT(d.m, d.n, d.k, widen(a), widen(bt)), tol)

			// Accumulating form: C starts at 1 everywhere.
			c = make([]T, d.m*d.n)
			for i := range c {
				c[i] = 1
			}
			GemmNN(d.m, d.n, d.k, a, b, c, true, workers)
			acc := make([]float64, len(want))
			for i := range acc {
				acc[i] = want[i] + 1
			}
			closeSlices(t, "GemmNN acc", c, acc, tol)
		}
	}
}

// TestGemmWorkersBitIdentical is the determinism contract: the same
// kernel must produce bit-identical output for any worker count.
func TestGemmWorkersBitIdentical(t *testing.T) {
	bothWidths(t, testGemmWorkersBitIdentical[float64], testGemmWorkersBitIdentical[float32])
}

func testGemmWorkersBitIdentical[T Float](t *testing.T) {
	g := NewRNG(7)
	const m, n, k = 6, 5000, 37
	a := randSlice[T](g, m*k) // also read as the [k×m] operand of TN
	b := randSlice[T](g, k*n)
	bt := randSlice[T](g, n*k)
	ref := make([]T, m*n)
	GemmNN(m, n, k, a, b, ref, false, 1)
	refNT := make([]T, m*n)
	GemmNT(m, n, k, a, bt, refNT, false, 1)
	refTN := make([]T, m*n)
	GemmTN(m, n, k, a, b, refTN, false, 1)
	for _, workers := range []int{2, 3, 8} {
		c := make([]T, m*n)
		GemmNN(m, n, k, a, b, c, false, workers)
		sameBits(t, fmt.Sprintf("GemmNN workers=%d", workers), c, ref)
		c = make([]T, m*n)
		GemmNT(m, n, k, a, bt, c, false, workers)
		sameBits(t, fmt.Sprintf("GemmNT workers=%d", workers), c, refNT)
		c = make([]T, m*n)
		GemmTN(m, n, k, a, b, c, false, workers)
		sameBits(t, fmt.Sprintf("GemmTN workers=%d", workers), c, refTN)
	}
}

// TestGemmPanelBoundsPanic: a panel whose stated extent overruns its
// slice must panic at the call site, not read out of range.
func TestGemmPanelBoundsPanic(t *testing.T) {
	bothWidths(t, testGemmPanelBoundsPanic[float64], testGemmPanelBoundsPanic[float32])
}

func testGemmPanelBoundsPanic[T Float](t *testing.T) {
	const m, n, k = 3, 4, 5
	a, b, c := make([]T, m*k), make([]T, k*n), make([]T, m*n)
	for name, call := range map[string]func(){
		"NN short C":  func() { GemmPanelNN(m, n, k, a, k, b, n, c[:m*n-1], n, false, 1) },
		"TN short A":  func() { GemmPanelTN(m, n, k, a[:k*m-1], m, b, n, c, n, false, 1) },
		"NT stride<k": func() { GemmPanelNT(m, n, k, a, k-1, b, k, c, n, false, 1) },
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
}

// TestMatMulBlockedMatchesReference checks the rewired tensor.MatMul
// against the scalar product.
func TestMatMulBlockedMatchesReference(t *testing.T) {
	g := NewRNG(3)
	a := Normal(g, 0, 1, 9, 13)
	b := Normal(g, 0, 1, 13, 11)
	got := MatMul(a, b)
	want := naiveNN(9, 11, 13, a.Data(), b.Data())
	closeSlices(t, "MatMul", got.Data(), want, tol64)

	dst := New(9, 11)
	MatMulInto(dst, a, b, 2)
	closeSlices(t, "MatMulInto", dst.Data(), want, tol64)
}

// im2colRef indexes the lowered matrix entry directly from the image.
func im2colRef[T Float](x []T, c, h, w, k, pad, ci, ky, kx, oy, ox int) T {
	iy, ix := oy+ky-pad, ox+kx-pad
	if iy < 0 || iy >= h || ix < 0 || ix >= w {
		return 0
	}
	return x[(ci*h+iy)*w+ix]
}

func TestIm2ColMatchesDirectIndexing(t *testing.T) {
	bothWidths(t, testIm2ColMatchesDirectIndexing[float64], testIm2ColMatchesDirectIndexing[float32])
}

func testIm2ColMatchesDirectIndexing[T Float](t *testing.T) {
	g := NewRNG(11)
	cases := []struct{ c, h, w, k, pad int }{
		{2, 5, 6, 3, 0},
		{3, 7, 7, 5, 2}, // same padding
		{1, 4, 9, 3, 1},
		{2, 6, 5, 5, 4}, // pad > (k-1)/2
	}
	for _, tc := range cases {
		x := randSlice[T](g, tc.c*tc.h*tc.w)
		oh := ConvOutSize(tc.h, tc.k, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.pad)
		cols := make([]T, Im2ColRows(tc.c, tc.k)*oh*ow)
		// Poison the buffer to catch unwritten cells.
		for i := range cols {
			cols[i] = T(math.NaN())
		}
		Im2Col(x, tc.c, tc.h, tc.w, tc.k, tc.pad, cols)
		for ci := 0; ci < tc.c; ci++ {
			for ky := 0; ky < tc.k; ky++ {
				for kx := 0; kx < tc.k; kx++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							r := (ci*tc.k+ky)*tc.k + kx
							got := cols[r*oh*ow+oy*ow+ox]
							want := im2colRef(x, tc.c, tc.h, tc.w, tc.k, tc.pad, ci, ky, kx, oy, ox)
							if got != want {
								t.Fatalf("%+v: cols[%d,%d,%d,%d,%d] = %g, want %g", tc, ci, ky, kx, oy, ox, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestCol2ImIsAdjointOfIm2Col verifies ⟨Im2Col(x), u⟩ = ⟨x, Col2Im(u)⟩
// for random x and u — the exact property the backward pass relies on.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	bothWidths(t,
		func(t *testing.T) { testCol2ImIsAdjointOfIm2Col[float64](t, 1e-10) },
		func(t *testing.T) { testCol2ImIsAdjointOfIm2Col[float32](t, tol32) })
}

func testCol2ImIsAdjointOfIm2Col[T Float](t *testing.T, tol float64) {
	g := NewRNG(13)
	cases := []struct{ c, h, w, k, pad int }{
		{2, 5, 6, 3, 0},
		{3, 7, 7, 5, 2},
		{1, 6, 4, 3, 1},
	}
	for _, tc := range cases {
		oh := ConvOutSize(tc.h, tc.k, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.pad)
		nc := Im2ColRows(tc.c, tc.k) * oh * ow
		x := randSlice[T](g, tc.c*tc.h*tc.w)
		u := randSlice[T](g, nc)
		cols := make([]T, nc)
		Im2Col(x, tc.c, tc.h, tc.w, tc.k, tc.pad, cols)
		lhs := 0.0
		for i := range cols {
			lhs += float64(cols[i]) * float64(u[i])
		}
		back := make([]T, len(x))
		Col2Im(u, tc.c, tc.h, tc.w, tc.k, tc.pad, back)
		rhs := 0.0
		for i := range x {
			rhs += float64(x[i]) * float64(back[i])
		}
		if math.Abs(lhs-rhs) > tol*(1+math.Abs(lhs)) {
			t.Fatalf("%+v: ⟨im2col(x),u⟩ = %g but ⟨x,col2im(u)⟩ = %g", tc, lhs, rhs)
		}
	}
}

// TestIm2ColWindowTilesMatchFullLowering splits the output frame into
// irregular column tiles and checks that the tiled panels reassemble
// into exactly the full lowering, and that tiled Col2Im scatters
// reproduce the full scatter.
func TestIm2ColWindowTilesMatchFullLowering(t *testing.T) {
	bothWidths(t,
		func(t *testing.T) { testIm2ColWindowTilesMatchFullLowering[float64](t, 1e-12) },
		func(t *testing.T) { testIm2ColWindowTilesMatchFullLowering[float32](t, tol32) })
}

func testIm2ColWindowTilesMatchFullLowering[T Float](t *testing.T, tol float64) {
	g := NewRNG(17)
	cases := []struct{ c, h, w, k, pad int }{
		{2, 5, 6, 3, 0},
		{3, 7, 7, 5, 2},
		{1, 4, 9, 3, 1},
	}
	splits := [][]int{{0, 1}, {0, 3, 4}, {0, 7, 13}}
	for ci, tc := range cases {
		oh := ConvOutSize(tc.h, tc.k, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.pad)
		frame := oh * ow
		rows := Im2ColRows(tc.c, tc.k)
		x := randSlice[T](g, tc.c*tc.h*tc.w)
		full := make([]T, rows*frame)
		Im2Col(x, tc.c, tc.h, tc.w, tc.k, tc.pad, full)

		// Build tile boundaries: the case's split points plus a regular
		// sweep, clipped to the frame.
		bounds := append([]int(nil), splits[ci%len(splits)]...)
		for j := bounds[len(bounds)-1]; j < frame; j += 5 {
			bounds = append(bounds, j)
		}
		bounds = append(bounds, frame)

		u := randSlice[T](g, rows*frame)
		wantBack := make([]T, len(x))
		Col2Im(u, tc.c, tc.h, tc.w, tc.k, tc.pad, wantBack)
		gotBack := make([]T, len(x))

		for bi := 0; bi+1 < len(bounds); bi++ {
			j0, j1 := bounds[bi], bounds[bi+1]
			if j0 >= j1 {
				continue
			}
			tw := j1 - j0
			tile := make([]T, rows*tw)
			Im2ColWindow(x, tc.c, tc.h, tc.w, tc.k, tc.pad, j0, j1, tile)
			for r := 0; r < rows; r++ {
				for j := 0; j < tw; j++ {
					if got, want := tile[r*tw+j], full[r*frame+j0+j]; got != want {
						t.Fatalf("%+v tile [%d:%d): cols[%d,%d] = %g, full %g", tc, j0, j1, r, j0+j, got, want)
					}
				}
			}
			// Scatter the matching slice of u through the window.
			uTile := make([]T, rows*tw)
			for r := 0; r < rows; r++ {
				copy(uTile[r*tw:(r+1)*tw], u[r*frame+j0:r*frame+j1])
			}
			Col2ImWindow(uTile, tc.c, tc.h, tc.w, tc.k, tc.pad, j0, j1, gotBack)
		}
		closeSlices(t, "Col2ImWindow tiles", gotBack, widen(wantBack), tol)
	}
}

// TestGemmPanelStridedMatchesFlat embeds operands in larger frames and
// checks the strided panel kernels against the flat ones.
func TestGemmPanelStridedMatchesFlat(t *testing.T) {
	bothWidths(t,
		func(t *testing.T) { testGemmPanelStridedMatchesFlat[float64](t, tol64) },
		func(t *testing.T) { testGemmPanelStridedMatchesFlat[float32](t, tol32) })
}

func testGemmPanelStridedMatchesFlat[T Float](t *testing.T, tol float64) {
	g := NewRNG(23)
	const m, n, k = 5, 9, 11
	const lda, ldb, ldc = 17, 21, 15
	a := randSlice[T](g, m*lda)
	b := randSlice[T](g, k*ldb)
	c := randSlice[T](g, m*ldc)

	// Flat copies.
	af := make([]float64, m*k)
	for i := 0; i < m; i++ {
		copy(af[i*k:(i+1)*k], widen(a[i*lda:i*lda+k]))
	}
	bf := make([]float64, k*n)
	for p := 0; p < k; p++ {
		copy(bf[p*n:(p+1)*n], widen(b[p*ldb:p*ldb+n]))
	}
	want := naiveNN(m, n, k, af, bf)

	got := append([]T(nil), c...)
	GemmPanelNN(m, n, k, a, lda, b, ldb, got, ldc, false, 1)
	for i := 0; i < m; i++ {
		closeSlices(t, "GemmPanelNN row", got[i*ldc:i*ldc+n], want[i*n:(i+1)*n], tol)
		// Columns beyond n in the C frame must be untouched.
		for j := n; j < ldc && i*ldc+j < len(got); j++ {
			if got[i*ldc+j] != c[i*ldc+j] {
				t.Fatalf("GemmPanelNN wrote outside its panel at [%d,%d]", i, j)
			}
		}
	}

	// TN: A stored transposed in a strided frame [k rows × lda≥m].
	at := randSlice[T](g, k*lda)
	atf := make([]float64, m*k) // flat row-major [m×k] view of atᵀ
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			atf[i*k+p] = float64(at[p*lda+i])
		}
	}
	want = naiveNN(m, n, k, atf, bf)
	got = append([]T(nil), c...)
	GemmPanelTN(m, n, k, at, lda, b, ldb, got, ldc, false, 2)
	for i := 0; i < m; i++ {
		closeSlices(t, "GemmPanelTN row", got[i*ldc:i*ldc+n], want[i*n:(i+1)*n], tol)
	}

	// NT: B stored as [n rows × ldb≥k].
	bt := randSlice[T](g, n*ldb)
	btf := make([]float64, k*n) // flat [k×n] with btf[p*n+j] = bt[j*ldb+p]
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			btf[p*n+j] = float64(bt[j*ldb+p])
		}
	}
	want = naiveNN(m, n, k, af, btf)
	got = append([]T(nil), c...)
	GemmPanelNT(m, n, k, a, lda, bt, ldb, got, ldc, false, 2)
	for i := 0; i < m; i++ {
		closeSlices(t, "GemmPanelNT row", got[i*ldc:i*ldc+n], want[i*n:(i+1)*n], tol)
	}
}

// Im2Col lowers the full CHW image x (flat, c·h·w values) into cols,
// a [C·K·K × OH·OW] row-major matrix: the whole-frame lowering the
// windowed tiles and the direct kernel are checked against.
func Im2Col[T Float](x []T, c, h, w, k, pad int, cols []T) {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	Im2ColWindow(x, c, h, w, k, pad, 0, oh*ow, cols)
}

// Col2Im is the adjoint of Im2Col over the full output frame.
func Col2Im[T Float](cols []T, c, h, w, k, pad int, x []T) {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	Col2ImWindow(cols, c, h, w, k, pad, 0, oh*ow, x)
}
