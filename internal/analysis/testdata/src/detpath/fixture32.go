// fixture32.go exercises detpath against the idioms the float32
// compute path introduced: length-only SIMD dispatch, a mutex-guarded
// pack cache with a generation counter, and arena scratch reuse. All
// of these must stay legal — and the tempting shortcuts next to them
// (seeding scratch from the global RNG, invalidating caches by map
// iteration, timing a kernel inline) must stay banned.
package fixture

import (
	"math/rand"
	"sync"
	"time"
)

// kernelDispatch32 mirrors a cascading SIMD dispatch: the SIMD/scalar
// split is a pure function of the span length, which is exactly what
// the determinism contract wants.
func kernelDispatch32(c, b []float32, a float32) {
	i := 0
	if len(c) >= 32 { // negative: branch on length only
		i = len(c) &^ 31
	}
	if len(c)-i >= 16 {
		i += (len(c) - i) &^ 15
	}
	for ; i < len(c); i++ {
		c[i] += a * b[i]
	}
}

// packCache32 mirrors the prepacked-weight cache: a mutex and a
// generation counter, no clock, no map.
type packCache32 struct {
	mu  sync.Mutex
	gen uint64
	wd  []float32
}

func (p *packCache32) get(src []float64, gen uint64) []float32 { // negative: deterministic cache
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen != gen || p.wd == nil {
		p.wd = make([]float32, len(src))
		for i, v := range src {
			p.wd[i] = float32(v)
		}
		p.gen = gen
	}
	return p.wd
}

// invalidateByName is the tempting shortcut next to the cache: walking
// a registry map to invalidate packs orders the walk randomly per run.
func invalidateByName(packs map[string]*packCache32) {
	for _, p := range packs { // want `map iteration`
		p.wd = nil
	}
}

// noisyScratch32 seeds an arena plane from the global RNG — the f32
// twin of the classic divergence source.
func noisyScratch32(plane []float32) {
	for i := range plane {
		plane[i] = rand.Float32() // want `global math/rand RNG`
	}
}

// timedKernel32 times a kernel inline with the wall clock.
func timedKernel32(c, b []float32, a float32) time.Duration {
	t0 := time.Now() // want `wall-clock read`
	kernelDispatch32(c, b, a)
	return time.Since(t0) // want `wall-clock read`
}
