package tensor

import "fmt"

// DirectConv32ScratchLen returns the scratch length DirectConv32 needs
// for the given geometry: the zero-padded input copy (only when
// pad > 0) plus the full-width accumulation plane.
func DirectConv32ScratchLen(cin, h, w, k, pad int) int {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	wp := w + 2*pad
	n := (oh-1)*wp + ow
	if pad > 0 {
		return cin*(h+2*pad)*wp + n
	}
	return n
}

// DirectConv32 computes one CHW image of a stride-1, zero-padded K×K
// convolution without lowering: y[co,oy,ox] = bias[co] +
// Σ_{ci,ky,kx} wgt[co,ci,ky,kx] · x[ci, oy+ky−pad, ox+kx−pad], taps
// outside the image reading as zero. x is [cin × h × w] flat, wgt is
// [cout × cin × K × K] flat, bias (may be nil) has cout entries, y —
// [cout × OH × OW] flat — is overwritten, and scratch must be at least
// DirectConv32ScratchLen long (the caller supplies it so the rollout
// hot loop stays allocation-free).
//
// At the paper's outer layers (4→6 and 6→4 channels) the im2col panel
// is 25× larger than the input tile it lowers; this kernel skips the
// materialization entirely. Each tap of a valid convolution reads the
// input at a constant flat offset, so the whole output plane
// accumulates as Cin·K² long axpy sweeps over one full-width scratch
// plane (rows padded from OW to the input width; the off-row lanes
// compute garbage that the final row extraction drops). Zero padding
// is materialized once into scratch so every shape reduces to the
// valid case. Taps group four per sweep in fixed order and the
// SIMD/scalar split of each sweep depends only on its length, so the
// result is deterministic; batching is the caller's concern (images
// are independent).
func DirectConv32(x []float32, cin, h, w int, wgt []float32, cout, k, pad int, bias []float32, y, scratch []float32) {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	if cin <= 0 || cout <= 0 || h <= 0 || w <= 0 || k <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: DirectConv32 invalid config cin=%d cout=%d h=%d w=%d k=%d pad=%d", cin, cout, h, w, k, pad))
	}
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: DirectConv32 image %dx%d (pad %d) smaller than kernel %d", h, w, pad, k))
	}
	if len(x) < cin*h*w {
		panic(fmt.Sprintf("tensor: DirectConv32 image buffer %d too short for %dx%dx%d", len(x), cin, h, w))
	}
	if len(wgt) < cout*cin*k*k {
		panic(fmt.Sprintf("tensor: DirectConv32 weight buffer %d too short for [%d x %d x %d x %d]", len(wgt), cout, cin, k, k))
	}
	if len(y) < cout*oh*ow {
		panic(fmt.Sprintf("tensor: DirectConv32 output buffer %d too short for [%d x %d x %d]", len(y), cout, oh, ow))
	}
	if need := DirectConv32ScratchLen(cin, h, w, k, pad); len(scratch) < need {
		panic(fmt.Sprintf("tensor: DirectConv32 scratch buffer %d too short, need %d", len(scratch), need))
	}

	hp, wp := h+2*pad, w+2*pad
	n := (oh-1)*wp + ow
	xp := x
	plane := scratch
	if pad > 0 {
		xp = scratch[:cin*hp*wp]
		plane = scratch[cin*hp*wp:]
		for i := range xp {
			xp[i] = 0
		}
		for ci := 0; ci < cin; ci++ {
			src := x[ci*h*w:]
			dst := xp[ci*hp*wp+pad*wp+pad:]
			for row := 0; row < h; row++ {
				copy(dst[row*wp:row*wp+w], src[row*w:row*w+w])
			}
		}
	}
	f := plane[:n]

	taps := cin * k * k
	for co := 0; co < cout; co++ {
		var bv float32
		if bias != nil {
			bv = bias[co]
		}
		for i := range f {
			f[i] = bv
		}
		wc := wgt[co*taps:][:taps]
		// Tap j reads the padded input at the constant offset
		// base(channel) + ky·wp + kx; four taps share one axpy sweep
		// regardless of channel boundaries (each carries its own
		// pointer), so the remainder is at most three taps per output
		// channel.
		off := func(j int) int {
			ci, t := j/(k*k), j%(k*k)
			return ci*hp*wp + (t/k)*wp + t%k
		}
		j := 0
		for ; j+4 <= taps; j += 4 {
			w0, w1, w2, w3 := wc[j], wc[j+1], wc[j+2], wc[j+3]
			if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
				continue
			}
			axpy4f32(f,
				xp[off(j):off(j)+n],
				xp[off(j+1):off(j+1)+n],
				xp[off(j+2):off(j+2)+n],
				xp[off(j+3):off(j+3)+n],
				w0, w1, w2, w3)
		}
		for ; j < taps; j++ {
			if wv := wc[j]; wv != 0 {
				axpy1Go(f, xp[off(j):off(j)+n], wv)
			}
		}
		out := y[co*oh*ow:][:oh*ow]
		for oy := 0; oy < oh; oy++ {
			copy(out[oy*ow:oy*ow+ow], f[oy*wp:oy*wp+ow])
		}
	}
}
