package nn

import (
	"testing"

	"repro/internal/tensor"
)

func TestArenaReusesChunksAfterRelease(t *testing.T) {
	a := NewArena()
	m := a.Mark()
	s1 := a.f64.alloc(100)
	s2 := a.f64.alloc(arenaMinChunk) // forces a second chunk
	if len(s1) != 100 || len(s2) != arenaMinChunk {
		t.Fatalf("Alloc lengths %d, %d", len(s1), len(s2))
	}
	p1, p2 := &s1[0], &s2[0]
	a.Release(m)

	// The same bracketed sequence must hand back the same storage —
	// that is the steady-state zero-allocation property the rollout
	// loop relies on.
	m2 := a.Mark()
	r1 := a.f64.alloc(100)
	r2 := a.f64.alloc(arenaMinChunk)
	if &r1[0] != p1 || &r2[0] != p2 {
		t.Fatal("Release did not rewind to the same backing storage")
	}
	a.Release(m2)
}

func TestArenaMarkReleaseNesting(t *testing.T) {
	a := NewArena()
	outer := a.Mark()
	x := a.f64.alloc(10)
	x[0] = 1
	inner := a.Mark()
	y := a.f64.alloc(20)
	y[0] = 2
	a.Release(inner)
	// x's storage must be untouched by releasing the inner mark.
	if x[0] != 1 {
		t.Fatal("inner Release clobbered outer allocation")
	}
	z := a.f64.alloc(20)
	if &z[0] != &y[0] {
		t.Fatal("inner Release did not rewind to the inner mark")
	}
	a.Release(outer)
}

// TestConvScratchHighWater pins the engine's scratch bound: a Table-I
// Conv2D (K = 5, same padding) forward + backward at 64² — the
// per-rank tile of the benchmark's 2×2 training — grows its arena to
// no more than the 1<<16 elements one lowered panel took, whatever the
// channel ratio. Band buffers are what keep rss_mb flat; a whole-plane
// buffer per layer would blow through this.
func TestConvScratchHighWater(t *testing.T) {
	for _, ch := range [][2]int{{4, 6}, {6, 16}, {16, 6}, {6, 4}} {
		g := tensor.NewRNG(3)
		conv := NewConv2D("c", g, ch[0], ch[1], 5, 2)
		x := tensor.Normal(g, 0, 1, 1, ch[0], 64, 64)
		for i := 0; i < 2; i++ {
			conv.Backward(conv.Forward(x))
		}
		held := 0
		for _, c := range conv.scratch.f64.chunks {
			held += len(c)
		}
		if held > 1<<16 {
			t.Errorf("%d→%d: arena holds %d float64s after forward+backward, bound %d", ch[0], ch[1], held, 1<<16)
		}
	}
}
