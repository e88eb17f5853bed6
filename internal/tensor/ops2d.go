package tensor

import "fmt"

// The helpers in this file operate on the NCHW layout used throughout
// the neural-network stack: dimension 0 is batch, 1 is channel, 2 is
// row (y), 3 is column (x). A few also accept plain CHW or HW tensors
// where noted.

// Pad2D zero-pads the last two dimensions of a rank-4 NCHW tensor by
// pad cells on every side. pad must be >= 0.
//
//repolint:allow reach -- nn/reference_test.go pads with it: the nested-loop convolution oracle of the crosscheck, gradcheck and batched tests
func Pad2D(t *Tensor, pad int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D needs rank-4 NCHW tensor, got shape %v", t.shape))
	}
	if pad < 0 {
		panic("tensor: Pad2D negative padding")
	}
	if pad == 0 {
		return t.Clone()
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	out := New(n, c, h+2*pad, w+2*pad)
	oh, ow := h+2*pad, w+2*pad
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			srcBase := (in*c + ic) * h * w
			dstBase := (in*c+ic)*oh*ow + pad*ow + pad
			for y := 0; y < h; y++ {
				copy(out.data[dstBase+y*ow:dstBase+y*ow+w], t.data[srcBase+y*w:srcBase+(y+1)*w])
			}
		}
	}
	return out
}

// Crop2D removes crop cells from every side of the last two dimensions
// of a rank-4 NCHW tensor. It panics if the result would be empty or
// negative-sized.
func Crop2D(t *Tensor, crop int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Crop2D needs rank-4 NCHW tensor, got shape %v", t.shape))
	}
	if crop < 0 {
		panic("tensor: Crop2D negative crop")
	}
	if crop == 0 {
		return t.Clone()
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	nh, nw := h-2*crop, w-2*crop
	if nh <= 0 || nw <= 0 {
		panic(fmt.Sprintf("tensor: Crop2D crop %d too large for %dx%d", crop, h, w))
	}
	out := New(n, c, nh, nw)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			srcBase := (in*c+ic)*h*w + crop*w + crop
			dstBase := (in*c + ic) * nh * nw
			for y := 0; y < nh; y++ {
				copy(out.data[dstBase+y*nw:dstBase+(y+1)*nw], t.data[srcBase+y*w:srcBase+y*w+nw])
			}
		}
	}
	return out
}

// SubImage extracts rows [y0,y1) and columns [x0,x1) from the last two
// dimensions of a rank-4 NCHW tensor, copying into a new tensor.
func SubImage(t *Tensor, y0, y1, x0, x1 int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: SubImage needs rank-4 NCHW tensor, got shape %v", t.shape))
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if y0 < 0 || x0 < 0 || y1 > h || x1 > w || y0 >= y1 || x0 >= x1 {
		panic(fmt.Sprintf("tensor: SubImage window [%d:%d,%d:%d] out of range for %dx%d", y0, y1, x0, x1, h, w))
	}
	nh, nw := y1-y0, x1-x0
	out := New(n, c, nh, nw)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			srcBase := (in*c+ic)*h*w + y0*w + x0
			dstBase := (in*c + ic) * nh * nw
			for y := 0; y < nh; y++ {
				copy(out.data[dstBase+y*nw:dstBase+(y+1)*nw], t.data[srcBase+y*w:srcBase+y*w+nw])
			}
		}
	}
	return out
}

// SetSubImage writes src (rank-4 NCHW) into the window of t whose
// top-left corner in the last two dimensions is (y0, x0). Batch and
// channel dimensions must match.
func SetSubImage(t, src *Tensor, y0, x0 int) {
	if t.Rank() != 4 || src.Rank() != 4 {
		panic("tensor: SetSubImage needs rank-4 NCHW tensors")
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	sn, sc, sh, sw := src.shape[0], src.shape[1], src.shape[2], src.shape[3]
	if sn != n || sc != c {
		panic(fmt.Sprintf("tensor: SetSubImage batch/channel mismatch %v vs %v", t.shape, src.shape))
	}
	if y0 < 0 || x0 < 0 || y0+sh > h || x0+sw > w {
		panic(fmt.Sprintf("tensor: SetSubImage window (%d,%d)+%dx%d out of range for %dx%d", y0, x0, sh, sw, h, w))
	}
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			dstBase := (in*c+ic)*h*w + y0*w + x0
			srcBase := (in*c + ic) * sh * sw
			for y := 0; y < sh; y++ {
				copy(t.data[dstBase+y*w:dstBase+y*w+sw], src.data[srcBase+y*sw:srcBase+(y+1)*sw])
			}
		}
	}
}

// Channel returns a copy of channel c of sample n from a rank-4 NCHW
// tensor, as an HxW rank-2 tensor.
func Channel(t *Tensor, n, c int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Channel needs rank-4 NCHW tensor, got shape %v", t.shape))
	}
	h, w := t.shape[2], t.shape[3]
	out := New(h, w)
	base := (n*t.shape[1] + c) * h * w
	copy(out.data, t.data[base:base+h*w])
	return out
}

// Stack concatenates rank-3 CHW tensors of identical shape into a
// rank-4 NCHW tensor.
func Stack(samples []*Tensor) *Tensor {
	if len(samples) == 0 {
		panic("tensor: Stack of zero tensors")
	}
	first := samples[0]
	if first.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Stack needs rank-3 CHW tensors, got %v", first.shape))
	}
	c, h, w := first.shape[0], first.shape[1], first.shape[2]
	out := New(len(samples), c, h, w)
	stride := c * h * w
	for i, s := range samples {
		if !s.SameShape(first) {
			panic(fmt.Sprintf("tensor: Stack shape mismatch %v vs %v", s.shape, first.shape))
		}
		copy(out.data[i*stride:(i+1)*stride], s.data)
	}
	return out
}
