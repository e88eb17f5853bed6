//go:build amd64

package tensor

// amd64 dispatch for the fallback micro-kernels. With AVX-512 the
// shifted sweeps run on the register tiles of tile_amd64.go instead,
// and only GemmPanelTN still reaches axpy4. When the CPU (and the OS,
// via XSAVE) support AVX2 and FMA, the bulk of every axpy4 update runs
// through the assembly loop in gemm_amd64.s — four broadcast
// coefficients against four B streams, eight float64 lanes per
// iteration, one C load and store per four taps. The scalar remainder
// (and the whole call when SIMD is unavailable) falls back to the
// portable Go loop.
//
// FMA rounds once where the Go loop rounds twice, so the variants
// differ by float round-off; every cross-implementation comparison in
// this repository is tolerance-based, and the determinism contract
// (an element's accumulation order depends only on the operand
// dimensions) holds within each variant.

// useAVX2FMA / useAVX512 gate the assembly kernels. They are variables
// (not constants) so tests can force each fallback level and compare.
var (
	useAVX2FMA = detectAVX2FMA()
	useAVX512  = useAVX2FMA && detectAVX512()
)

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float64, n int, coef *[4]float64)

//go:noescape
func dot2AVX2(a0, a1, b *float64, n int) (d0, d1 float64)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// detectAVX2FMA reports whether AVX2+FMA instructions are usable:
// CPUID leaf 1 must advertise FMA, AVX and OSXSAVE, XCR0 must show the
// OS saves XMM+YMM state, and CPUID leaf 7 must advertise AVX2.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// detectAVX512 reports whether AVX-512F instructions are usable: CPUID
// leaf 7 must advertise AVX512F and XCR0 must show the OS saves
// opmask + ZMM state. Callers AND this with detectAVX2FMA (which
// establishes OSXSAVE and the base XMM/YMM state).
func detectAVX512() bool {
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	if ebx7&avx512f == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&0xe0 == 0xe0 // opmask, ZMM_Hi256, Hi16_ZMM
}

// axpy4f64 adds a0·b0 + a1·b1 + a2·b2 + a3·b3 elementwise into c. The b
// slices must be at least len(c) long. The SIMD/scalar split depends
// only on len(c), preserving the kernels' determinism contract.
func axpy4f64(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	i := 0
	if useAVX2FMA && len(c) >= 8 {
		n := len(c) &^ 7
		coef := [4]float64{a0, a1, a2, a3}
		axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], n, &coef)
		i = n
	}
	if i == len(c) {
		return
	}
	axpy4Go(c[i:], b0[i:], b1[i:], b2[i:], b3[i:], a0, a1, a2, a3)
}

// gemmDot2f64 returns (a0·b, a1·b). The AVX2+FMA kernel reduces the bulk
// of b into vector lanes that are horizontally summed in a fixed
// order; the scalar tail is then added on top, so the split point (and
// the result) depends only on len(b).
func gemmDot2f64(a0, a1, b []float64) (float64, float64) {
	var d0, d1 float64
	i := 0
	if useAVX2FMA && len(b) >= 8 {
		n := len(b) &^ 7
		d0, d1 = dot2AVX2(&a0[0], &a1[0], &b[0], n)
		i = n
	}
	if i < len(b) {
		t0, t1 := gemmDot2Go(a0[i:], a1[i:], b[i:])
		d0 += t0
		d1 += t1
	}
	return d0, d1
}
