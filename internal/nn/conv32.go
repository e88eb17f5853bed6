package nn

import "repro/internal/tensor"

// directConv32MaxWork bounds Cin·Cout·K² for the direct-convolution
// kernel. Below it the im2col lowering's panel traffic costs more than
// it saves — the paper model's 4→6 and 6→4 edge layers (600 at K=5)
// land under the bound, the 6→16 and 16→6 interior layers (2400) stay
// on the GEMM route.
const directConv32MaxWork = 1024

// useDirectConv32 reports whether the layer shape should take the
// direct kernel instead of the im2col + GEMM lowering. The choice
// depends only on the layer shape, so it is stable across calls.
func useDirectConv32(cin, cout, k int) bool {
	return cin*cout*k*k <= directConv32MaxWork
}

// setPrecision32 implements layer32.
func (c *Conv2D) setPrecision32(on bool, a *Arena) error {
	c.f32on, c.f32arena = pin32(on, a, c.pack, c.weight, c.bias)
	return nil
}

// invalidatePack implements packInvalidator.
func (c *Conv2D) invalidatePack() { c.pack.invalidate() }

// forward32 implements layer32: the shared convForward sweep on
// float32, or the direct kernel for tiny channel counts. The output is
// allocated from the chain arena before the inner scratch mark, so
// releasing the lowering panels leaves it live for the next stage.
func (c *Conv2D) forward32(x act32, a *Arena) act32 {
	g := c.shapeFor(x.n, x.c, x.h, x.w)
	c.cacheInput = nil // a float64 Backward must not pair with this forward
	wd, bd := c.pack.get(c.weight.Value, c.bias.Value)
	oh, ow := g.out()
	yd := a.Alloc32(g.n * g.cout * oh * ow)
	mark := a.Mark()
	if useDirectConv32(g.cin, g.cout, g.k) {
		directForward32(a, c.Workers, g, x.d, wd, bd, yd)
	} else {
		convForward(&a.f32, c.Workers, g, x.d, wd, bd, yd)
	}
	a.Release(mark)
	return act32{n: g.n, c: g.cout, h: oh, w: ow, d: yd}
}

// directForward32 runs the direct kernel over the batch; images are
// independent, so with workers > 1 they fan out, each worker with its
// own scratch plane.
func directForward32(a *Arena, workers int, g convShape, xd, wd, bd, yd []float32) {
	sl := tensor.DirectConv32ScratchLen(g.cin, g.h, g.w, g.k, g.pad)
	nw := min(workers, g.n)
	if nw <= 1 {
		scratch := a.Alloc32(sl)
		for in := 0; in < g.n; in++ {
			directImage32(in, g, xd, wd, bd, yd, scratch)
		}
		return
	}
	scratches := make([][]float32, nw)
	for w := range scratches {
		scratches[w] = a.Alloc32(sl)
	}
	parallelFor(nw, nw, func(w int) {
		for in := w * g.n / nw; in < (w+1)*g.n/nw; in++ {
			directImage32(in, g, xd, wd, bd, yd, scratches[w])
		}
	})
}

// directImage32 runs the direct kernel on image in of the batch.
func directImage32(in int, g convShape, xd, wd, bd, yd, scratch []float32) {
	oh, ow := g.out()
	perIn, perOut := g.cin*g.h*g.w, g.cout*oh*ow
	tensor.DirectConv32(xd[in*perIn:(in+1)*perIn], g.cin, g.h, g.w,
		wd, g.cout, g.k, g.pad, bd, yd[in*perOut:(in+1)*perOut], scratch)
}
