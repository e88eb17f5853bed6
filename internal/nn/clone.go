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
// fresh per-layer caches (see SharedCloner), its convolution layers
// threaded onto one new shared scratch arena (the same deduplication
// Sequential.SetScratch performs). It panics if any contained layer
// does not support shared cloning — silently reusing a stateful layer
// across goroutines would be a data race, not a fallback.
func (s *Sequential) CloneShared() *Sequential {
	out := &Sequential{layers: make([]Layer, len(s.layers))}
	for i, l := range s.layers {
		c, ok := l.(SharedCloner)
		if !ok {
			panic(fmt.Sprintf("nn: layer %d (%s) does not implement CloneShared", i, l.Name()))
		}
		out.layers[i] = c.CloneShared()
	}
	out.SetScratch(NewArena())
	// The precision pin is a per-instance property, and the clone's
	// layers share the master's packed f32 weights (the pack pointers
	// were copied above), so propagating the pin costs no re-narrowing
	// — pack-once-per-Engine.
	if s.f32 != nil {
		if err := out.SetPrecision(F32); err != nil {
			panic(fmt.Sprintf("nn: CloneShared precision pin: %v", err))
		}
	}
	return out
}

// CloneShared implements SharedCloner: the clone shares the weight and
// bias Params but owns a private scratch arena and empty caches.
func (c *Conv2D) CloneShared() Layer {
	return &Conv2D{
		InChannels:  c.InChannels,
		OutChannels: c.OutChannels,
		Kernel:      c.Kernel,
		Pad:         c.Pad,
		Workers:     c.Workers,
		weight:      c.weight,
		bias:        c.bias,
		scratch:     NewArena(),
		pack:        c.pack,
		name:        c.name,
	}
}

// CloneShared implements SharedCloner.
func (c *ConvTranspose2D) CloneShared() Layer {
	return &ConvTranspose2D{
		InChannels:  c.InChannels,
		OutChannels: c.OutChannels,
		Kernel:      c.Kernel,
		Workers:     c.Workers,
		weight:      c.weight,
		bias:        c.bias,
		scratch:     NewArena(),
		pack:        c.pack,
		name:        c.name,
	}
}

// CloneShared implements SharedCloner (the mask buffer is per-clone).
func (l *LeakyReLU) CloneShared() Layer { return &LeakyReLU{Epsilon: l.Epsilon, name: l.name} }
