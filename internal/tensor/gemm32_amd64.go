//go:build amd64

package tensor

// amd64 dispatch for the float32 axpy4 micro-kernel, mirroring
// gemm_amd64.go at twice the lane width: the AVX2 loop covers sixteen
// float32 lanes per iteration. The same useAVX2FMA gate applies, and
// the split between SIMD body and Go tail depends only on the span
// length, never on the worker count, so the determinism contract
// carries over unchanged.

//go:noescape
func axpy4AVX2F32(c, b0, b1, b2, b3 *float32, n int, coef *[4]float32)

// axpy4f32 adds a0·b0 + a1·b1 + a2·b2 + a3·b3 elementwise into c. The
// b slices must be at least len(c) long.
func axpy4f32(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	i := 0
	if useAVX2FMA && len(c) >= 16 {
		i = len(c) &^ 15
		coef := [4]float32{a0, a1, a2, a3}
		axpy4AVX2F32(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], i, &coef)
	}
	if i == len(c) {
		return
	}
	axpy4Go(c[i:], b0[i:], b1[i:], b2[i:], b3[i:], a0, a1, a2, a3)
}
