package tensor

// Float32/float64 boundary conversions for the f32 compute path
// (DESIGN.md §13). The serving engine keeps float64 master weights and
// frames; when an Engine is pinned to F32 precision, inputs are
// narrowed once on entry, every kernel in between runs on float32, and
// the result is widened once at the output boundary. Both routines are
// plain element loops: narrowing rounds to nearest, widening is exact,
// so a float32 value survives a f32→f64→f32 round trip bit-for-bit.

// Narrow32 writes float32(src[i]) into dst. The slices must have equal
// length.
func Narrow32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Narrow32 length mismatch")
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// Widen64 writes float64(src[i]) into dst — an exact conversion. The
// slices must have equal length.
func Widen64(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Widen64 length mismatch")
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}
