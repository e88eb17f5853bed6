package tensor

import (
	"fmt"
	"sync"
)

// This file is the dense-linear-algebra engine behind the convolution
// layers (see internal/nn/conv.go and DESIGN.md §3). Two shifted sweeps
// cover every product the convolution forward and backward passes need:
//
//	ShiftedNN — C (+)= A·B   (conv and transpose-conv forward and dx)
//	ShiftedNT — C (+)= A·Bᵀ  (conv dW, transpose-conv dW)
//
// where row p of B is not a row of a lowered panel but a slice of a
// zero-padded input band at the tap's constant offset (Taps). The
// strided panel kernels are their K = 1 case:
//
//	GemmPanelNN — C (+)= A·B   (ShiftedNN, K = 1)
//	GemmPanelTN — C (+)= Aᵀ·B  (the NN sweep reading A by columns)
//	GemmPanelNT — C (+)= A·Bᵀ  (ShiftedNT, K = 1)
//
// No layer calls the panel kernels; GemmNN/TN/NT and the benchmark
// probes do. On amd64 with AVX-512 the two shifted sweeps run on
// register-tile micro-kernels (tile_amd64.go/.s): an NN tile holds up to
// 4 rows × 4 vectors of C in zmm registers across the whole reduction,
// an NT tile 4 × 4 dot products. Everywhere else, and for TN, the
// reduction loop takes taps four at a time through the axpy4
// micro-kernel (AVX2+FMA in gemm_amd64.s, a pure-Go loop elsewhere) and
// NT is a two-row dot-product tile. None of the kernels allocate:
// callers own every buffer, which is what lets the convolution layers
// reuse scratch arenas across steps — and with workers <= 1 they build
// no closure either, so the single-worker rollout loop stays
// allocation-free.
//
// The kernels are generic over the element width (Float): training
// instantiates them on float64, the inference path of DESIGN.md §13 on
// float32. Only the SIMD micro-kernels are width-specific.
//
// Determinism contract: for a fixed kernel the per-element accumulation
// order depends only on the operand dimensions, never on the worker
// count — tasks partition C disjointly and each element is produced by
// exactly one worker in the same order as the serial sweep. Results
// are therefore bit-identical for any workers value.

// Float is the element type of the kernels.
type Float interface{ ~float32 | ~float64 }

// gemmColBlock is the column-block width (in elements) of the NN/TN
// kernels: 2048 columns = 16 KiB of float64 per C-row panel, small
// enough that the panel survives in L1 across the full reduction sweep.
const gemmColBlock = 2048

// ParallelFor runs f(i) for i in [0, n) across min(workers, n)
// goroutines; workers <= 1 degrades to a plain serial loop. The GEMM
// kernels use it to fan the independent (row × column-block) tasks of
// C out to workers, and the nn package's layer-level parallelism
// delegates to it.
func ParallelFor(n, workers int, f func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// colBlocks returns the number of gemmColBlock-wide column blocks
// covering n columns.
func colBlocks(n int) int { return (n + gemmColBlock - 1) / gemmColBlock }

// The two micro-kernels of the sweeps that run without the register
// tiles (and of GemmPanelTN always). The sweeps pick theirs once per
// call (axpy4For, dot2For), so the hot loops pay an indirect call,
// never a type switch.
type (
	// axpy4Func: c[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j].
	axpy4Func[T Float] func(c, b0, b1, b2, b3 []T, a0, a1, a2, a3 T)
	// dot2Func returns (a0·b, a1·b).
	dot2Func[T Float] func(a0, a1, b []T) (T, T)
)

// axpy4For returns the axpy4 micro-kernel of element type T: the SIMD
// dispatcher of its width (gemm_amd64.go, gemm32_amd64.go; the
// portable loop elsewhere), or the portable loop for any other Float
// type.
func axpy4For[T Float]() axpy4Func[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(axpy4Func[float64](axpy4f64)).(axpy4Func[T])
	case float32:
		return any(axpy4Func[float32](axpy4f32)).(axpy4Func[T])
	}
	return axpy4Go[T]
}

// dot2For returns the dot micro-kernel of element type T. Only float64
// — the one width whose NT product sits on a hot path, the convolution
// dW of training — has a SIMD version (AVX2; with AVX-512 the NT tiles
// run instead); every other type takes the portable loop.
func dot2For[T Float]() dot2Func[T] {
	var z T
	if _, ok := any(z).(float64); ok {
		return any(dot2Func[float64](gemmDot2f64)).(dot2Func[T])
	}
	return gemmDot2Go[T]
}

// axpy4Go is the portable reduction micro-kernel:
// c[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j].
// On amd64 the width-specific dispatchers route the bulk of the work
// to the AVX2+FMA versions and keep this loop for the tail; with
// AVX-512 no shifted sweep reaches it.
func axpy4Go[T Float](c, b0, b1, b2, b3 []T, a0, a1, a2, a3 T) {
	for j := range c {
		c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy1Go is the remainder kernel for reduction lengths not divisible
// by four: c[j] += a·b[j].
func axpy1Go[T Float](c, b []T, a T) {
	for j := range c {
		c[j] += a * b[j]
	}
}

// Taps is the geometry of a shifted B operand, the zero-memory-overhead
// direct convolution of Zhang, Franchetti & Low (arXiv:1809.10170): in
// a stride-1 K×K convolution over a zero-padded band of C channels
// (channel stride CS, row stride RS), tap (c, ky, kx) reads the band at
// the constant offset c·CS + ky·RS + kx from every full-width output
// position, so row p = (c·K + ky)·K + kx of the lowered matrix is a
// slice of the band itself and no patch panel is ever built. With K = 1
// the operand is an ordinary panel of C rows and row stride CS.
type Taps struct{ C, K, CS, RS int }

// rows returns the tap count C·K².
func (t Taps) rows() int { return t.C * t.K * t.K }

// span returns the operand length that rows of n elements need: the
// last tap's offset plus n.
func (t Taps) span(n int) int { return (t.C-1)*t.CS + (t.K-1)*(t.RS+1) + n }

// tapWalk yields the offsets of consecutive taps, stepping (kx, ky, c)
// instead of dividing: the sweeps ask once per tap per row, where two
// integer divisions would cost a visible share of a short axpy.
type tapWalk struct {
	Taps
	kx, ky, row, base int
}

func (w *tapWalk) next() int {
	o := w.base + w.row + w.kx
	if w.kx++; w.kx == w.K {
		w.kx, w.row = 0, w.row+w.RS
		if w.ky++; w.ky == w.K {
			w.ky, w.row, w.base = 0, 0, w.base+w.CS
		}
	}
	return o
}

// gemmPanelRow accumulates one row of C over the taps of tp:
// ci[j] (+)= Σ_p a[p·astride]·b[off(p)+j], off(p) the offset of tap p.
// astride is 1 when the A operand is a contiguous row (NN) and the A
// row stride when it is a strided column (TN). Taps group four per
// axpy sweep in order, across channel boundaries.
func gemmPanelRow[T Float](axpy4 axpy4Func[T], ci []T, a []T, astride int, b []T, tp Taps, acc bool) {
	if !acc {
		clear(ci)
	}
	w, k := len(ci), tp.rows()
	walk := tapWalk{Taps: tp}
	p := 0
	for ; p+4 <= k; p += 4 {
		o0, o1, o2, o3 := walk.next(), walk.next(), walk.next(), walk.next()
		a0 := a[p*astride]
		a1 := a[(p+1)*astride]
		a2 := a[(p+2)*astride]
		a3 := a[(p+3)*astride]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		axpy4(ci, b[o0:o0+w], b[o1:o1+w], b[o2:o2+w], b[o3:o3+w], a0, a1, a2, a3)
	}
	for ; p < k; p++ {
		o := walk.next()
		if av := a[p*astride]; av != 0 {
			axpy1Go(ci, b[o:o+w], av)
		}
	}
}

// gemmPanelRows is the sweep shared by the NN and TN kernels: task
// t = i·nb + jb produces column block jb of C row i, reading A element
// (i, p) at a[i·arow + p·astride] — (lda, 1) for NN, (1, lda) for TN.
func gemmPanelRows[T Float](m, n int, a []T, arow, astride int, b []T, tp Taps, c []T, ldc int, acc bool, workers int) {
	nb := colBlocks(n)
	axpy4 := axpy4For[T]()
	if workers <= 1 {
		for t := 0; t < m*nb; t++ {
			gemmPanelTask(axpy4, t, nb, n, a, arow, astride, b, tp, c, ldc, acc)
		}
		return
	}
	ParallelFor(m*nb, workers, func(t int) {
		gemmPanelTask(axpy4, t, nb, n, a, arow, astride, b, tp, c, ldc, acc)
	})
}

// gemmPanelTask runs one (row × column-block) task of gemmPanelRows.
func gemmPanelTask[T Float](axpy4 axpy4Func[T], t, nb, n int, a []T, arow, astride int, b []T, tp Taps, c []T, ldc int, acc bool) {
	i, jb := t/nb, t%nb
	j0 := jb * gemmColBlock
	j1 := min(j0+gemmColBlock, n)
	gemmPanelRow(axpy4, c[i*ldc+j0:i*ldc+j1], a[i*arow:], astride, b[j0:], tp, acc)
}

// ShiftedNN computes C = A·B (or C += A·B when acc is true) where row p
// of B is the slice of tap p of tp: C[i·ldc+j] for i<m, j<n accumulates
// Σ_p A[i·lda+p]·b[off(p)+j] over p < C·K². Over a padded band this is
// a stride-1 convolution's forward at every full-width output position,
// with no lowering. On the register tiles each element is one FMA chain
// over the taps in order, however the sweep is tiled. workers > 1 fans
// disjoint blocks of C out to that many goroutines; results are
// bit-identical for any worker count.
func ShiftedNN[T Float](m, n int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool, workers int) {
	checkPanel("ShiftedNN", m, n, len(a), lda, m, tp.rows(), len(b), tp, n, len(c), ldc)
	if !shiftedNNTiled(m, n, a, lda, b, tp, c, ldc, acc, workers) {
		gemmPanelRows(m, n, a, lda, 1, b, tp, c, ldc, acc, workers)
	}
}

// ShiftedNT computes C = A·Bᵀ (or C += A·Bᵀ when acc is true) where row
// j of B is the slice of tap j of tp: C[i·ldc+j] for i<m, j<C·K²
// accumulates Σ_q A[i·lda+q]·b[off(j)+q] over q < k. Over a padded
// band, with A the output gradient in the band's full-width layout
// (zeros in the columns that fall off the frame), this is a stride-1
// convolution's weight gradient. Every C element is a dot product,
// swept in ntBlock-wide slices of the reduction so the A slices and one
// channel's window of the band stay L1-resident across that channel's
// taps. The register tiles stream each B slice once per four A rows;
// the fallback once per pair. workers > 1 fans those row blocks out to
// goroutines; bit-identical for any worker count.
func ShiftedNT[T Float](m, k int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool, workers int) {
	checkPanel("ShiftedNT", m, tp.rows(), len(a), lda, m, k, len(b), tp, k, len(c), ldc)
	if shiftedNTTiled(m, k, a, lda, b, tp, c, ldc, acc, workers) {
		return
	}
	pairs := (m + 1) / 2
	dot2 := dot2For[T]()
	if workers <= 1 {
		for ip := 0; ip < pairs; ip++ {
			gemmPanelNTPair(dot2, ip, m, k, a, lda, b, tp, c, ldc, acc)
		}
		return
	}
	ParallelFor(pairs, workers, func(ip int) {
		gemmPanelNTPair(dot2, ip, m, k, a, lda, b, tp, c, ldc, acc)
	})
}

// ntBlock is the reduction slice of the NT sweep: 8 KiB of float64 per
// A row, so the four A slices of a register tile plus one channel's
// window of the band fit a 48 KiB L1. 512 and 2048 measured slower.
const ntBlock = 1024

// gemmPanelNTPair produces rows 2·ip and 2·ip+1 of the NT product (only
// the first when m is odd and this is the last pair).
func gemmPanelNTPair[T Float](dot2 dot2Func[T], ip, m, k int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool) {
	i, n := 2*ip, tp.rows()
	two := i+1 < m
	a0, c0 := a[i*lda:][:k], c[i*ldc:][:n]
	a1, c1 := a0, c0
	if two {
		a1, c1 = a[(i+1)*lda:][:k], c[(i+1)*ldc:][:n]
	}
	if !acc {
		clear(c0)
		clear(c1)
	}
	for q0 := 0; q0 < k; q0 += ntBlock {
		q1 := min(q0+ntBlock, k)
		s0, s1 := a0[q0:q1], a1[q0:q1]
		walk := tapWalk{Taps: tp}
		for j := range c0 {
			o := walk.next() + q0
			d0, d1 := dot2(s0, s1, b[o:o+q1-q0])
			c0[j] += d0
			if two {
				c1[j] += d1
			}
		}
	}
}

// GemmPanelNN computes C = A·B (or C += A·B when acc is true) over
// row-major panels: C[i·ldc+j] for i<m, j<n accumulates
// Σ_p A[i·lda+p]·B[p·ldb+j]. It is ShiftedNN with K = 1; bit-identical
// for any worker count.
func GemmPanelNN[T Float](m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int, acc bool, workers int) {
	ShiftedNN(m, n, a, lda, b, Taps{C: k, K: 1, CS: ldb}, c, ldc, acc, workers)
}

// GemmPanelNN32 is GemmPanelNN on float32, kept under its old name for
// the frozen bench/ module only.
func GemmPanelNN32(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool, workers int) {
	GemmPanelNN(m, n, k, a, lda, b, ldb, c, ldc, acc, workers)
}

// GemmPanelTN computes C = Aᵀ·B (or C += Aᵀ·B when acc is true) over
// row-major panels: C[i·ldc+j] for i<m, j<n accumulates
// Σ_p A[p·lda+i]·B[p·ldb+j]. A is read column-wise, so it should be
// the small operand whose strided loads stay cache-resident.
// Bit-identical for any worker count.
func GemmPanelTN[T Float](m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int, acc bool, workers int) {
	tp := Taps{C: k, K: 1, CS: ldb}
	checkPanel("GemmPanelTN", m, n, len(a), lda, k, m, len(b), tp, n, len(c), ldc)
	gemmPanelRows(m, n, a, 1, lda, b, tp, c, ldc, acc, workers)
}

// GemmPanelNT computes C = A·Bᵀ (or C += A·Bᵀ when acc is true) over
// row-major panels: C[i·ldc+j] for i<m, j<n accumulates
// Σ_p A[i·lda+p]·B[j·ldb+p]. It is ShiftedNT with K = 1; bit-identical
// for any worker count.
func GemmPanelNT[T Float](m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int, acc bool, workers int) {
	ShiftedNT(m, k, a, lda, b, Taps{C: n, K: 1, CS: ldb}, c, ldc, acc, workers)
}

// gemmDot2Go is the portable dot micro-kernel: it returns (a0·b, a1·b)
// with a shared 4-way unrolled sweep of b. The partial accumulators
// are combined in a fixed order so results do not depend on how
// callers partition the surrounding loops. On amd64 gemmDot2f64 routes
// the bulk of the work to the AVX2+FMA version and keeps this loop for
// the tail.
func gemmDot2Go[T Float](a0, a1, b []T) (T, T) {
	var s00, s01, s02, s03 T
	var s10, s11, s12, s13 T
	p := 0
	for ; p+4 <= len(b); p += 4 {
		b0, b1, b2, b3 := b[p], b[p+1], b[p+2], b[p+3]
		s00 += a0[p] * b0
		s01 += a0[p+1] * b1
		s02 += a0[p+2] * b2
		s03 += a0[p+3] * b3
		s10 += a1[p] * b0
		s11 += a1[p+1] * b1
		s12 += a1[p+2] * b2
		s13 += a1[p+3] * b3
	}
	d0 := (s00 + s01) + (s02 + s03)
	d1 := (s10 + s11) + (s12 + s13)
	for ; p < len(b); p++ {
		d0 += a0[p] * b[p]
		d1 += a1[p] * b[p]
	}
	return d0, d1
}

// GemmNN computes C = A·B (or C += A·B when acc is true) for dense
// row-major flat matrices A [m×k], B [k×n], C [m×n].
func GemmNN[T Float](m, n, k int, a, b, c []T, acc bool, workers int) {
	GemmPanelNN(m, n, k, a, k, b, n, c, n, acc, workers)
}

// GemmTN computes C = Aᵀ·B (or C += Aᵀ·B when acc is true) for dense
// row-major flat matrices A [k×m], B [k×n], C [m×n].
func GemmTN[T Float](m, n, k int, a, b, c []T, acc bool, workers int) {
	GemmPanelTN(m, n, k, a, m, b, n, c, n, acc, workers)
}

// GemmNT computes C = A·Bᵀ (or C += A·Bᵀ when acc is true) for dense
// row-major flat matrices A [m×k], B [n×k], C [m×n].
func GemmNT[T Float](m, n, k int, a, b, c []T, acc bool, workers int) {
	GemmPanelNT(m, n, k, a, k, b, k, c, n, acc, workers)
}

// checkPanel panics when an operand cannot hold its stated extent
// (catching mis-wired strides at the call site instead of as silent
// out-of-range reads). A spans ar rows of ac used columns with row
// stride lda; B is read through the taps of tp in rows of bc elements
// (at K = 1 a plain panel, whose rows may not overlap); C is m × n
// with row stride ldc.
func checkPanel(op string, m, n, alen, lda, ar, ac, blen int, tp Taps, bc, clen, ldc int) {
	if m < 0 || n < 0 || ac < 0 || bc < 0 || tp.C < 0 || tp.K < 1 {
		panic(fmt.Sprintf("tensor: %s negative dimensions m=%d n=%d taps %+v", op, m, n, tp))
	}
	if m == 0 || n == 0 {
		return
	}
	if need := (ar-1)*lda + ac; ar > 0 && (lda < ac || alen < need) {
		panic(fmt.Sprintf("tensor: %s A panel %d rows × %d cols stride %d needs %d elements, have %d", op, ar, ac, lda, need, alen))
	}
	if need := tp.span(bc); tp.C > 0 && ((tp.K == 1 && tp.CS < bc) || blen < need) {
		panic(fmt.Sprintf("tensor: %s B operand taps %+v × %d cols needs %d elements, have %d", op, tp, bc, need, blen))
	}
	if need := (m-1)*ldc + n; ldc < n || clen < need {
		panic(fmt.Sprintf("tensor: %s C panel %d rows × %d cols stride %d needs %d elements, have %d", op, m, n, ldc, need, clen))
	}
}
