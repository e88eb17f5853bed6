package nn

import "repro/internal/tensor"

// Arena is a grow-only bump allocator for per-call scratch buffers.
// The convolution engine needs band buffers (a padded copy of the input
// rows a band reads, plus a full-width accumulator) on every Forward
// and Backward; allocating them fresh each call would dominate the
// allocation profile of training and of the rollout loop. An Arena hands out slices from reusable
// chunks instead: after the first pass has grown the chunks to their
// steady-state sizes, every later pass allocates nothing.
//
// Lifetimes are stack-shaped: callers bracket each batch of Alloc
// calls with Mark / Release, which makes one arena safely shareable by
// all layers of a Sequential (layers run one at a time, and scratch
// never outlives the layer call that requested it). An Arena is NOT
// safe for concurrent use; concurrent ranks each own their models and
// therefore their arenas.
//
// Float32 scratch (the F32 inference path, DESIGN.md §13) lives in its
// own chunk list inside the same arena, so one Mark/Release bracket
// governs both element types and the f32 layers share the network's
// arena without mixing widths within a chunk.
type Arena struct {
	f64 bump[float64]
	f32 bump[float32]
}

// bump is the arena's allocator for one element width: a list of
// grow-only chunks and the position of the next free element.
type bump[T tensor.Float] struct {
	chunks [][]T
	cur    int // index of the chunk being bumped
	off    int // bump offset within chunks[cur]
}

// NewArena returns an empty arena; chunks are grown on demand.
func NewArena() *Arena { return &Arena{} }

// arenaMinChunk is the smallest chunk the arena allocates (64 KiB of
// float64s), so tiny requests don't fragment into many chunks.
const arenaMinChunk = 1 << 13

// alloc returns a scratch slice of n elements with arbitrary contents.
func (b *bump[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for b.cur < len(b.chunks) {
		c := b.chunks[b.cur]
		if b.off+n <= len(c) {
			s := c[b.off : b.off+n]
			b.off += n
			return s
		}
		b.cur++
		b.off = 0
	}
	c := make([]T, max(n, arenaMinChunk))
	b.chunks = append(b.chunks, c)
	b.cur = len(b.chunks) - 1
	b.off = n
	return c[:n]
}

// Alloc returns a scratch slice of n float64s with arbitrary contents.
// The slice is valid until the enclosing Mark is Released (or the
// arena is reused past it); callers must not retain it beyond that.
func (a *Arena) Alloc(n int) []float64 { return a.f64.alloc(n) }

// Alloc32 returns a scratch slice of n float32s with arbitrary
// contents, under the same Mark/Release discipline as Alloc.
func (a *Arena) Alloc32(n int) []float32 { return a.f32.alloc(n) }

// ArenaMark is a position in the arena's bump stack (both widths).
type ArenaMark struct{ cur, off, cur32, off32 int }

// Mark records the current allocation position. Pair it with Release
// to return every slice handed out in between to the arena.
func (a *Arena) Mark() ArenaMark { return ArenaMark{a.f64.cur, a.f64.off, a.f32.cur, a.f32.off} }

// Release rewinds the arena to a previous Mark, invalidating all
// slices allocated after it.
func (a *Arena) Release(m ArenaMark) {
	a.f64.cur, a.f64.off = m.cur, m.off
	a.f32.cur, a.f32.off = m.cur32, m.off32
}

// scratchUser is implemented by layers that consume arena scratch.
type scratchUser interface{ SetScratch(*Arena) }

// SetScratch threads one shared scratch arena through every contained
// layer that can use it (the convolution layers). Each conv layer owns
// a private arena by default, so calling this is an optimization — it
// deduplicates the workspaces of a whole network into one — not a
// requirement for buffer reuse.
func (s *Sequential) SetScratch(a *Arena) {
	for _, l := range s.layers {
		if u, ok := l.(scratchUser); ok {
			u.SetScratch(a)
		}
	}
}

// workersUser is implemented by layers with an intra-layer parallelism
// knob.
type workersUser interface{ SetWorkers(int) }

// SetWorkers sets the Workers knob on every contained layer that has
// one. Results are bit-identical for any worker count (the kernels'
// determinism contract), so this only trades goroutines for speed.
func (s *Sequential) SetWorkers(workers int) {
	for _, l := range s.layers {
		if u, ok := l.(workersUser); ok {
			u.SetWorkers(workers)
		}
	}
}
