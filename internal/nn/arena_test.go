package nn

import "testing"

func TestArenaReusesChunksAfterRelease(t *testing.T) {
	a := NewArena()
	m := a.Mark()
	s1 := a.Alloc(100)
	s2 := a.Alloc(arenaMinChunk) // forces a second chunk
	if len(s1) != 100 || len(s2) != arenaMinChunk {
		t.Fatalf("Alloc lengths %d, %d", len(s1), len(s2))
	}
	p1, p2 := &s1[0], &s2[0]
	a.Release(m)

	// The same bracketed sequence must hand back the same storage —
	// that is the steady-state zero-allocation property the rollout
	// loop relies on.
	m2 := a.Mark()
	r1 := a.Alloc(100)
	r2 := a.Alloc(arenaMinChunk)
	if &r1[0] != p1 || &r2[0] != p2 {
		t.Fatal("Release did not rewind to the same backing storage")
	}
	a.Release(m2)
}

func TestArenaMarkReleaseNesting(t *testing.T) {
	a := NewArena()
	outer := a.Mark()
	x := a.Alloc(10)
	x[0] = 1
	inner := a.Mark()
	y := a.Alloc(20)
	y[0] = 2
	a.Release(inner)
	// x's storage must be untouched by releasing the inner mark.
	if x[0] != 1 {
		t.Fatal("inner Release clobbered outer allocation")
	}
	z := a.Alloc(20)
	if &z[0] != &y[0] {
		t.Fatal("inner Release did not rewind to the inner mark")
	}
	a.Release(outer)
}
