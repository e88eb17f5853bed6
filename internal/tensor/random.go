package tensor

import "math/rand"

// RNG is a deterministic random source for tensor initialization.
// All experiments in this repository seed their RNGs explicitly so that
// runs are reproducible.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic random source seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform allocates a tensor with elements drawn uniformly from [lo,hi).
func Uniform(g *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*g.Float64()
	}
	return t
}

// Normal allocates a tensor with elements drawn from N(mean, std²).
func Normal(g *RNG, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + std*g.NormFloat64()
	}
	return t
}
