package nn

// setPrecision32 implements layer32.
func (c *Conv2D) setPrecision32(on bool, a *Arena) error {
	c.f32on, c.f32arena = pin32(on, a, c.pack, c.weight, c.bias)
	return nil
}

// invalidatePack implements packInvalidator.
func (c *Conv2D) invalidatePack() { c.pack.invalidate() }

// forward32 implements layer32: the shared convForward sweep on
// float32. The output is allocated from the chain arena before the
// inner scratch mark, so releasing the band buffers leaves it live for
// the next stage.
func (c *Conv2D) forward32(x act32, a *Arena) act32 {
	g := c.shapeFor(x.n, x.c, x.h, x.w)
	c.cacheInput = nil // a float64 Backward must not pair with this forward
	wd, bd := c.pack.get(c.weight.Value, c.bias.Value)
	oh, ow := g.out()
	yd := a.Alloc32(g.n * g.cout * oh * ow)
	mark := a.Mark()
	convForward(&a.f32, c.Workers, g, x.d, wd, bd, yd)
	a.Release(mark)
	return act32{n: g.n, c: g.cout, h: oh, w: ow, d: yd}
}
