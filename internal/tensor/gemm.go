package tensor

import (
	"fmt"
	"sync"
)

// This file is the dense-linear-algebra engine behind the GEMM-backed
// convolution path (see internal/nn/conv.go and DESIGN.md §3). Three
// strided panel kernels cover every product the convolution forward
// and backward passes need:
//
//	GemmPanelNN — C (+)= A·B      (conv and transpose-conv forward and dx)
//	GemmPanelTN — C (+)= Aᵀ·B     (GemmTN's body; no layer calls it)
//	GemmPanelNT — C (+)= A·Bᵀ     (conv dW, transpose-conv dW)
//
// All three take explicit row strides (lda/ldb/ldc), which is what
// lets the convolution layers run them over cache-sized column tiles
// of a larger frame without repacking. The reduction loop of the
// NN/TN kernels is register-tiled four wide and dispatches to an
// AVX2+FMA micro-kernel on amd64 (gemm_amd64.s) with a pure-Go
// fallback everywhere else; NT is a two-row dot-product tile. None of
// the kernels allocate: callers own every buffer, which is what lets
// the convolution layers reuse scratch arenas across steps — and with
// workers <= 1 they build no closure either, so the single-worker
// rollout loop stays allocation-free.
//
// The kernels are generic over the element width (Float): training
// instantiates them on float64, the inference path of DESIGN.md §13 on
// float32. Only the SIMD micro-kernels behind axpy4For and dot2For are
// width-specific.
//
// Determinism contract: for a fixed kernel the per-element accumulation
// order depends only on the operand dimensions, never on the worker
// count — tasks partition C disjointly and each element is produced by
// exactly one worker in the same order as the serial sweep. Results
// are therefore bit-identical for any workers value.

// Float is the element type of the lowering kernels.
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

// The two micro-kernels every panel product is built from. The panel
// kernels pick theirs once per call (axpy4For, dot2For), so the hot
// loops pay an indirect call, never a type switch.
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
// dW of training — has a SIMD version; every other type takes the
// portable loop.
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
// to the AVX2+FMA versions and keep this loop for the tail.
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

// gemmPanelRow accumulates one row of C over the reduction dimension:
// ci[j] (+)= Σ_p a[p·astride]·b[p·ldb+j]. astride is 1 when the A
// operand is a contiguous row (NN) and the A row stride when it is a
// strided column (TN). ci and the b rows must hold len(ci) elements.
func gemmPanelRow[T Float](axpy4 axpy4Func[T], ci []T, a []T, astride int, b []T, ldb, k int, acc bool) {
	if !acc {
		for j := range ci {
			ci[j] = 0
		}
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		a0 := a[p*astride]
		a1 := a[(p+1)*astride]
		a2 := a[(p+2)*astride]
		a3 := a[(p+3)*astride]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		w := len(ci)
		axpy4(ci,
			b[p*ldb:p*ldb+w],
			b[(p+1)*ldb:(p+1)*ldb+w],
			b[(p+2)*ldb:(p+2)*ldb+w],
			b[(p+3)*ldb:(p+3)*ldb+w],
			a0, a1, a2, a3)
	}
	for ; p < k; p++ {
		av := a[p*astride]
		if av == 0 {
			continue
		}
		axpy1Go(ci, b[p*ldb:p*ldb+len(ci)], av)
	}
}

// gemmPanelRows is the sweep shared by the NN and TN kernels: task
// t = i·nb + jb produces column block jb of C row i, reading A element
// (i, p) at a[i·arow + p·astride] — (lda, 1) for NN, (1, lda) for TN.
func gemmPanelRows[T Float](m, n, k int, a []T, arow, astride int, b []T, ldb int, c []T, ldc int, acc bool, workers int) {
	nb := colBlocks(n)
	axpy4 := axpy4For[T]()
	if workers <= 1 {
		for t := 0; t < m*nb; t++ {
			gemmPanelTask(axpy4, t, nb, n, k, a, arow, astride, b, ldb, c, ldc, acc)
		}
		return
	}
	ParallelFor(m*nb, workers, func(t int) {
		gemmPanelTask(axpy4, t, nb, n, k, a, arow, astride, b, ldb, c, ldc, acc)
	})
}

// gemmPanelTask runs one (row × column-block) task of gemmPanelRows.
func gemmPanelTask[T Float](axpy4 axpy4Func[T], t, nb, n, k int, a []T, arow, astride int, b []T, ldb int, c []T, ldc int, acc bool) {
	i, jb := t/nb, t%nb
	j0 := jb * gemmColBlock
	j1 := min(j0+gemmColBlock, n)
	gemmPanelRow(axpy4, c[i*ldc+j0:i*ldc+j1], a[i*arow:], astride, b[j0:], ldb, k, acc)
}

// GemmPanelNN computes C = A·B (or C += A·B when acc is true) over
// row-major panels: C[i·ldc+j] for i<m, j<n accumulates
// Σ_p A[i·lda+p]·B[p·ldb+j]. workers > 1 fans the (row × column-block)
// tasks of C out to that many goroutines; results are bit-identical
// for any worker count.
func GemmPanelNN[T Float](m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int, acc bool, workers int) {
	checkPanel("GemmPanelNN", m, n, k, len(a), lda, m, k, len(b), ldb, k, n, len(c), ldc)
	gemmPanelRows(m, n, k, a, lda, 1, b, ldb, c, ldc, acc, workers)
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
	checkPanel("GemmPanelTN", m, n, k, len(a), lda, k, m, len(b), ldb, k, n, len(c), ldc)
	gemmPanelRows(m, n, k, a, 1, lda, b, ldb, c, ldc, acc, workers)
}

// GemmPanelNT computes C = A·Bᵀ (or C += A·Bᵀ when acc is true) over
// row-major panels: C[i·ldc+j] for i<m, j<n accumulates
// Σ_p A[i·lda+p]·B[j·ldb+p]. Every C element is a dot product of two
// contiguous k-length rows; the kernel processes two A rows per B-row
// stream (halving B traffic) with a 4-way unrolled dot. workers > 1
// fans the row pairs of C out to goroutines; bit-identical for any
// worker count.
func GemmPanelNT[T Float](m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int, acc bool, workers int) {
	checkPanel("GemmPanelNT", m, n, k, len(a), lda, m, k, len(b), ldb, n, k, len(c), ldc)
	pairs := (m + 1) / 2
	dot2 := dot2For[T]()
	if workers <= 1 {
		for ip := 0; ip < pairs; ip++ {
			gemmPanelNTPair(dot2, ip, m, n, k, a, lda, b, ldb, c, ldc, acc)
		}
		return
	}
	ParallelFor(pairs, workers, func(ip int) {
		gemmPanelNTPair(dot2, ip, m, n, k, a, lda, b, ldb, c, ldc, acc)
	})
}

// gemmPanelNTPair produces rows 2·ip and 2·ip+1 of the NT product.
func gemmPanelNTPair[T Float](dot2 dot2Func[T], ip, m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int, acc bool) {
	i := 2 * ip
	a0 := a[i*lda : i*lda+k]
	c0 := c[i*ldc : i*ldc+n]
	if i+1 < m {
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		c1 := c[(i+1)*ldc : (i+1)*ldc+n]
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			d0, d1 := dot2(a0, a1, bj)
			if acc {
				c0[j] += d0
				c1[j] += d1
			} else {
				c0[j] = d0
				c1[j] = d1
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		bj := b[j*ldb : j*ldb+k]
		d, _ := dot2(a0, a0, bj)
		if acc {
			c0[j] += d
		} else {
			c0[j] = d
		}
	}
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

// checkPanel panics when a panel operand cannot hold its stated extent
// (catching mis-wired strides at the call site instead of as silent
// out-of-range reads). Operand X spanning rx rows of cx used columns
// with row stride ldx needs (rx-1)·ldx + cx elements.
func checkPanel(op string, m, n, k, alen, lda, ar, ac, blen, ldb, br, bc, clen, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: %s negative dimensions m=%d n=%d k=%d", op, m, n, k))
	}
	if m == 0 || n == 0 {
		return
	}
	if need := (ar-1)*lda + ac; ar > 0 && (lda < ac || alen < need) {
		panic(fmt.Sprintf("tensor: %s A panel %d rows × %d cols stride %d needs %d elements, have %d", op, ar, ac, lda, need, alen))
	}
	if need := (br-1)*ldb + bc; br > 0 && (ldb < bc || blen < need) {
		panic(fmt.Sprintf("tensor: %s B panel %d rows × %d cols stride %d needs %d elements, have %d", op, br, bc, ldb, need, blen))
	}
	if need := (m-1)*ldc + n; ldc < n || clen < need {
		panic(fmt.Sprintf("tensor: %s C panel %d rows × %d cols stride %d needs %d elements, have %d", op, m, n, ldc, need, clen))
	}
}
