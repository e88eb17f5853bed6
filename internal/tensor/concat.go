package tensor

import "fmt"

// ConcatChannels concatenates NCHW tensors along the channel
// dimension. All inputs must agree in batch and spatial dimensions.
// It is the building block of the temporal-window models: a window of
// k 4-channel snapshots becomes one 4k-channel input.
func ConcatChannels(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatChannels of nothing")
	}
	first := parts[0]
	if first.Rank() != 4 {
		panic(fmt.Sprintf("tensor: ConcatChannels needs rank-4 NCHW tensors, got %v", first.shape))
	}
	n, h, w := first.shape[0], first.shape[2], first.shape[3]
	totalC := 0
	for _, p := range parts {
		if p.Rank() != 4 || p.shape[0] != n || p.shape[2] != h || p.shape[3] != w {
			panic(fmt.Sprintf("tensor: ConcatChannels shape mismatch %v vs %v", p.shape, first.shape))
		}
		totalC += p.shape[1]
	}
	out := New(n, totalC, h, w)
	hw := h * w
	for in := 0; in < n; in++ {
		off := 0
		for _, p := range parts {
			c := p.shape[1]
			src := p.data[in*c*hw : (in+1)*c*hw]
			dst := out.data[(in*totalC+off)*hw : (in*totalC+off+c)*hw]
			copy(dst, src)
			off += c
		}
	}
	return out
}
