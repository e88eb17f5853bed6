package tensor

import "fmt"

// im2col/col2im lower a stride-1, zero-padded K×K convolution to a
// matrix product: each column of the lowered matrix holds the K×K×C
// input patch under one output position, so
//
//	Y [Cout × OH·OW] = W [Cout × C·K·K] · cols [C·K·K × OH·OW]
//
// is exactly the convolution forward pass. No layer lowers any more —
// the convolution layers read shifted slices of a padded band instead
// (PadRows + ShiftedNN/NT, DESIGN.md §3) — so the lowering is kept as
// the test oracle of those sweeps and for the benchmark probes, which
// time it by name. Col2Im is its adjoint scatter. Padding is folded
// into the lowering itself: out-of-range taps read as zeros in Im2Col
// and are dropped by Col2Im.
//
// The windowed variants lower only output columns [j0, j1), producing
// a [C·K·K × (j1−j0)] panel; the full lowering is the j0=0, j1=OH·OW
// special case. Both routines work on one CHW image at a time and
// write into caller-owned buffers. Like the GEMM kernels they are
// generic over the element width.

// Im2ColRows returns the row count C·K·K of the lowered matrix.
func Im2ColRows(c, k int) int { return c * k * k }

// ConvOutSize returns the output edge of a stride-1 K-kernel
// convolution with the given padding: n + 2·pad − k + 1.
func ConvOutSize(n, k, pad int) int { return n + 2*pad - k + 1 }

// PadRows copies rows [r0, r1) of the zero-padded CHW image x (c × h ×
// w, pad zero cells on every side) into dst, channel after channel with
// channel stride (r1−r0)·(w+2·pad). Every element of that window of the
// padded image is written, padding as zeros, so dst is the band a
// shifted sweep reads (Taps{C: c, K: k, CS: (r1−r0)·(w+2·pad), RS:
// w+2·pad}); r0 and r1 index padded rows, 0 ≤ r0 < r1 ≤ h+2·pad.
func PadRows[T Float](x []T, c, h, w, pad, r0, r1 int, dst []T) {
	wp := w + 2*pad
	if pad < 0 || r0 < 0 || r1 > h+2*pad || r0 >= r1 || len(x) < c*h*w || len(dst) < c*(r1-r0)*wp {
		panic(fmt.Sprintf("tensor: PadRows rows [%d:%d) of %dx%dx%d pad %d into %d elements", r0, r1, c, h, w, pad, len(dst)))
	}
	for ci := 0; ci < c; ci++ {
		for r := r0; r < r1; r++ {
			d := dst[(ci*(r1-r0)+r-r0)*wp:][:wp]
			iy := r - pad
			if iy < 0 || iy >= h {
				clear(d)
				continue
			}
			clear(d[:pad])
			copy(d[pad:pad+w], x[(ci*h+iy)*w:][:w])
			clear(d[pad+w:])
		}
	}
}

// Im2ColWindow lowers output columns [j0, j1) — flat row-major output
// positions oy·OW+ox — of the CHW image x into cols, a
// [C·K·K × (j1−j0)] row-major panel. Row (ci·K+ky)·K+kx holds, for
// every output position in the window, the input value at channel ci,
// row oy+ky−pad, column ox+kx−pad — zero where that falls outside the
// image. Every element of the panel is written.
func Im2ColWindow[T Float](x []T, c, h, w, k, pad, j0, j1 int, cols []T) {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	tw := j1 - j0
	checkIm2Col("Im2ColWindow", len(x), c, h, w, k, pad, oh, ow, j0, j1, len(cols))
	for ci := 0; ci < c; ci++ {
		chBase := ci * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := cols[((ci*k+ky)*k+kx)*tw:][:tw]
				// Output columns whose input column ox+kx−pad is in
				// range; everything outside is padding.
				x0 := max(0, pad-kx)
				x1 := min(ow, w+pad-kx)
				for oy := j0 / ow; oy*ow < j1; oy++ {
					// Window slice of output row oy, in local panel
					// coordinates.
					lo := max(j0, oy*ow) - oy*ow
					hi := min(j1, (oy+1)*ow) - oy*ow
					dst := row[oy*ow+lo-j0 : oy*ow+hi-j0]
					iy := oy + ky - pad
					cl := max(lo, x0)
					cr := min(hi, x1)
					if iy < 0 || iy >= h || cl >= cr {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					for i := 0; i < cl-lo; i++ {
						dst[i] = 0
					}
					copy(dst[cl-lo:cr-lo], x[chBase+iy*w+cl+kx-pad:][:cr-cl])
					for i := cr - lo; i < hi-lo; i++ {
						dst[i] = 0
					}
				}
			}
		}
	}
}

// Im2ColWindow32 is Im2ColWindow on float32, kept under its old name
// for the frozen bench/ module only.
func Im2ColWindow32(x []float32, c, h, w, k, pad, j0, j1 int, cols []float32) {
	Im2ColWindow(x, c, h, w, k, pad, j0, j1, cols)
}

// Col2ImWindow is the adjoint of Im2ColWindow: it accumulates the
// [C·K·K × (j1−j0)] panel cols back into the CHW image x, adding each
// patch entry onto the input cell it was read from and dropping
// entries that came from padding. x is accumulated into, not
// overwritten — callers zero it first when they want a plain scatter.
func Col2ImWindow[T Float](cols []T, c, h, w, k, pad, j0, j1 int, x []T) {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	tw := j1 - j0
	checkIm2Col("Col2ImWindow", len(x), c, h, w, k, pad, oh, ow, j0, j1, len(cols))
	for ci := 0; ci < c; ci++ {
		chBase := ci * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := cols[((ci*k+ky)*k+kx)*tw:][:tw]
				x0 := max(0, pad-kx)
				x1 := min(ow, w+pad-kx)
				for oy := j0 / ow; oy*ow < j1; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					lo := max(j0, oy*ow) - oy*ow
					hi := min(j1, (oy+1)*ow) - oy*ow
					cl := max(lo, x0)
					cr := min(hi, x1)
					if cl >= cr {
						continue
					}
					src := row[oy*ow+cl-j0 : oy*ow+cr-j0]
					dst := x[chBase+iy*w+cl+kx-pad:][:cr-cl]
					for i, v := range src {
						dst[i] += v
					}
				}
			}
		}
	}
}

// checkIm2Col validates a lowering window against its buffer lengths.
func checkIm2Col(op string, xlen, c, h, w, k, pad, oh, ow, j0, j1, colslen int) {
	if c <= 0 || h <= 0 || w <= 0 || k <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid config c=%d h=%d w=%d k=%d pad=%d", op, c, h, w, k, pad))
	}
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: %s image %dx%d (pad %d) smaller than kernel %d", op, h, w, pad, k))
	}
	if j0 < 0 || j1 > oh*ow || j0 >= j1 {
		panic(fmt.Sprintf("tensor: %s window [%d:%d) out of range for %d output positions", op, j0, j1, oh*ow))
	}
	if xlen < c*h*w {
		panic(fmt.Sprintf("tensor: %s image buffer %d too short for %dx%dx%d", op, xlen, c, h, w))
	}
	if colslen < c*k*k*(j1-j0) {
		panic(fmt.Sprintf("tensor: %s cols buffer %d too short for [%d x %d]", op, colslen, c*k*k, j1-j0))
	}
}
