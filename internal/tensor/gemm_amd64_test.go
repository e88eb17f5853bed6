//go:build amd64

package tensor

import "testing"

// TestGemmAsmMatchesPortable runs the full kernel surface with the
// SIMD dispatch enabled and with it forced off, and checks the results
// agree to float round-off (FMA rounds once where the portable loop
// rounds twice, so exact equality is not expected) across spans that
// exercise the AVX2 body, the AVX-512 body, and the scalar tails.
// Skipped on CPUs where no assembly path is live.
func TestGemmAsmMatchesPortable(t *testing.T) {
	if !useAVX2FMA {
		t.Skip("no SIMD kernel on this CPU")
	}
	bothWidths(t,
		func(t *testing.T) { testGemmAsmMatchesPortable[float64](t, tol64) },
		func(t *testing.T) { testGemmAsmMatchesPortable[float32](t, tol32) })
}

// TestSweepsOnEveryFallbackLevel reruns the sweep and convolution tests
// with the register tiles switched off (useAVX512 = false), then with
// the AVX2 kernels off as well, so an AVX-512 host keeps testing the
// paths that AVX2-only and non-amd64 hosts run.
func TestSweepsOnEveryFallbackLevel(t *testing.T) {
	save2, save512 := useAVX2FMA, useAVX512
	defer func() { useAVX2FMA, useAVX512 = save2, save512 }()
	for _, level := range []struct {
		name         string
		avx2, avx512 bool
	}{
		{"avx2", save2, false},
		{"portable", false, false},
	} {
		useAVX2FMA, useAVX512 = level.avx2, level.avx512
		t.Run(level.name, func(t *testing.T) {
			t.Run("ShiftedSweepsMatchLowered", TestShiftedSweepsMatchLowered)
			t.Run("DirectConv32MatchesLowered", TestDirectConv32MatchesLowered)
			t.Run("GemmKernelsMatchNaive", TestGemmKernelsMatchNaive)
			t.Run("GemmWorkersBitIdentical", TestGemmWorkersBitIdentical)
		})
	}
}

func testGemmAsmMatchesPortable[T Float](t *testing.T, tol float64) {
	save2, save512 := useAVX2FMA, useAVX512
	defer func() { useAVX2FMA, useAVX512 = save2, save512 }()

	g := NewRNG(99)
	dims := []struct{ m, n, k int }{
		{3, 5, 4},    // below every SIMD width: pure remainder
		{4, 23, 9},   // AVX2 span + scalar tail
		{6, 150, 37}, // AVX-512 span + tails
		{5, 2050, 8}, // across a column block boundary
	}
	for _, d := range dims {
		a := randSlice[T](g, d.m*d.k)
		b := randSlice[T](g, d.k*d.n)
		bt := randSlice[T](g, d.n*d.k)

		asmNN := make([]T, d.m*d.n)
		GemmNN(d.m, d.n, d.k, a, b, asmNN, false, 1)
		asmNT := make([]T, d.m*d.n)
		GemmNT(d.m, d.n, d.k, a, bt, asmNT, false, 1)

		useAVX2FMA, useAVX512 = false, false
		portNN := make([]T, d.m*d.n)
		GemmNN(d.m, d.n, d.k, a, b, portNN, false, 1)
		portNT := make([]T, d.m*d.n)
		GemmNT(d.m, d.n, d.k, a, bt, portNT, false, 1)
		useAVX2FMA, useAVX512 = save2, save512

		closeSlices(t, "NN asm vs portable", asmNN, widen(portNN), tol)
		closeSlices(t, "NT asm vs portable", asmNT, widen(portNT), tol)
	}
}
