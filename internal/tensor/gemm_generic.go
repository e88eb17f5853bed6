//go:build !amd64

package tensor

// On architectures without hand-written micro-kernels the portable Go
// loops do all the work.

func axpy4f64(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy4f32(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	axpy4Go(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func gemmDot2f64(a0, a1, b []float64) (float64, float64) {
	return gemmDot2Go(a0, a1, b)
}

func shiftedNNTiled[T Float](m, n int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool) bool {
	return false
}

func shiftedNTTiled[T Float](m, k int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool) bool {
	return false
}
