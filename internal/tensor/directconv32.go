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
// DirectConv32ScratchLen long.
//
// It is the whole-image, one-output-channel-at-a-time case of the
// layers' banded sweep: the padded image (PadRows, only when pad > 0)
// is one band, each output channel accumulates over it with ShiftedNN
// into one full-width scratch plane, and the valid columns are copied
// out.
func DirectConv32(x []float32, cin, h, w int, wgt []float32, cout, k, pad int, bias []float32, y, scratch []float32) {
	oh, ow := ConvOutSize(h, k, pad), ConvOutSize(w, k, pad)
	if cin <= 0 || cout <= 0 || h <= 0 || w <= 0 || k <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: DirectConv32 invalid config cin=%d cout=%d h=%d w=%d k=%d pad=%d", cin, cout, h, w, k, pad))
	}
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: DirectConv32 image %dx%d (pad %d) smaller than kernel %d", h, w, pad, k))
	}
	if len(y) < cout*oh*ow {
		panic(fmt.Sprintf("tensor: DirectConv32 output buffer %d too short for [%d x %d x %d]", len(y), cout, oh, ow))
	}
	if need := DirectConv32ScratchLen(cin, h, w, k, pad); len(scratch) < need {
		panic(fmt.Sprintf("tensor: DirectConv32 scratch buffer %d too short, need %d", len(scratch), need))
	}
	hp, wp := h+2*pad, w+2*pad
	xp, plane := x, scratch
	if pad > 0 {
		xp, plane = scratch[:cin*hp*wp], scratch[cin*hp*wp:]
		PadRows(x, cin, h, w, pad, 0, hp, xp)
	}
	f := plane[:(oh-1)*wp+ow]
	taps := cin * k * k
	for co := 0; co < cout; co++ {
		var bv float32
		if bias != nil {
			bv = bias[co]
		}
		for i := range f {
			f[i] = bv
		}
		ShiftedNN(1, len(f), wgt[co*taps:], taps, xp, Taps{C: cin, K: k, CS: hp * wp, RS: wp}, f, len(f), true)
		for oy := 0; oy < oh; oy++ {
			copy(y[(co*oh+oy)*ow:][:ow], f[oy*wp:])
		}
	}
}
