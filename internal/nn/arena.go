package nn

import "repro/internal/tensor"

// Arena is a grow-only bump allocator for a network's per-pass memory:
// the Sequential chain's activations and gradient buffers, and the
// convolution engine's band buffers (a padded copy of the input rows a
// band reads, plus a full-width accumulator). Allocating them fresh on
// every Forward and Backward would dominate the allocation profile of
// training and of the rollout loop. An Arena hands out slices from
// reusable chunks instead: after the first pass has grown them to their
// steady-state size, every later pass allocates nothing.
//
// Lifetimes are stack-shaped: callers bracket each batch of Alloc calls
// with Mark / Release. A Sequential's forward opens a bracket that its
// Backward closes (DESIGN.md §3), and every band buffer is a bracket
// nested inside one layer call. An Arena is NOT safe for concurrent
// use; concurrent ranks each own their models and therefore their
// arenas.
//
// Float32 memory (the F32 inference path, DESIGN.md §13) lives in its
// own chunk list inside the same arena, so one Mark/Release bracket
// governs both element types without mixing widths within a chunk.
type Arena struct {
	f64 bump[float64]
	f32 bump[float32]
}

// bump is the arena's allocator for one element width: a list of
// grow-only chunks, the position of the next free element, and the
// count of elements handed out and not yet released, with its
// high-water mark.
type bump[T tensor.Float] struct {
	chunks     [][]T
	cur        int // index of the chunk being bumped
	off        int // bump offset within chunks[cur]
	live, peak int
}

// NewArena returns an empty arena; chunks are grown on demand.
func NewArena() *Arena { return &Arena{} }

// arenaMinChunk is the smallest chunk the arena allocates (64 KiB of
// float64s), so tiny requests don't fragment into many chunks.
const arenaMinChunk = 1 << 13

// bumpOf returns a's allocator for the element width T.
func bumpOf[T tensor.Float](a *Arena) *bump[T] {
	if b, ok := any(&a.f32).(*bump[T]); ok {
		return b
	}
	return any(&a.f64).(*bump[T])
}

// alloc returns a slice of n elements with arbitrary contents, valid
// until the enclosing Mark is Released.
func (b *bump[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	b.live += n
	b.peak = max(b.peak, b.live)
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

// bumpMark is a position in one width's bump stack.
type bumpMark struct{ cur, off, live int }

func (b *bump[T]) mark() bumpMark { return bumpMark{b.cur, b.off, b.live} }

func (b *bump[T]) release(m bumpMark) { b.cur, b.off, b.live = m.cur, m.off, m.live }

// ArenaMark is a position in the arena's bump stack (both widths).
type ArenaMark struct{ f64, f32 bumpMark }

// Mark records the current allocation position. Pair it with Release
// to return every slice handed out in between to the arena.
func (a *Arena) Mark() ArenaMark { return ArenaMark{a.f64.mark(), a.f32.mark()} }

// Release rewinds the arena to a previous Mark, invalidating all
// slices allocated after it.
func (a *Arena) Release(m ArenaMark) {
	a.f64.release(m.f64)
	a.f32.release(m.f32)
}
