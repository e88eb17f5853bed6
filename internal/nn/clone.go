package nn

import "fmt"

// SharedCloner is implemented by layers that can produce a shallow,
// weight-sharing copy of themselves: the clone reads the SAME Param
// tensors (so it always sees the trained weights, and weighs nothing
// beyond its own bookkeeping) but owns fresh forward caches, scratch
// arenas and parallelism knobs. Two clones of one network can therefore
// run Forward concurrently from different goroutines — the property the
// serving Engine in internal/core is built on — as long as nobody
// mutates the shared weights in the meantime. Clones are for inference:
// they alias Param.Grad too, so training two clones concurrently would
// race on gradient accumulation.
type SharedCloner interface {
	CloneShared() Layer
}

// CloneShared returns a weight-sharing copy of the whole network with
// fresh per-layer caches (see SharedCloner) and its own arena, pinned
// to the same precision. It panics if any contained layer
// does not support shared cloning — silently reusing a stateful layer
// across goroutines would be a data race, not a fallback.
func (s *Sequential) CloneShared() *Sequential {
	out := NewSequential(make([]Layer, len(s.layers))...)
	for i, l := range s.layers {
		c, ok := l.(SharedCloner)
		if !ok {
			panic(fmt.Sprintf("nn: layer %d (%s) does not implement CloneShared", i, l.Name()))
		}
		out.layers[i] = c.CloneShared()
	}
	// The clone's convolutions share the master's float32 packs (the
	// pack pointers are copied below), so the pin costs no re-narrowing
	// — pack-once-per-Engine.
	out.prec = s.prec
	return out
}

// CloneShared implements SharedCloner: the clone copies the layer —
// sharing its Params and float32 pack — with no recorded input and a
// scratch arena of its own.
func (c *Conv2D) CloneShared() Layer {
	d := *c
	d.in, d.scratch = act[float64]{}, NewArena()
	return &d
}

// CloneShared implements SharedCloner (see Conv2D's).
func (c *ConvTranspose2D) CloneShared() Layer {
	d := *c
	d.in, d.scratch = act[float64]{}, NewArena()
	return &d
}

// CloneShared implements SharedCloner.
func (l *LeakyReLU) CloneShared() Layer { return &LeakyReLU{Epsilon: l.Epsilon, name: l.name} }
