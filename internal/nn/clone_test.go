package nn

import (
	"sync"
	"testing"

	"repro/internal/tensor"
)

// buildTestNet assembles a small network covering every layer kind the
// model builder emits (conv, activation, transpose conv).
func buildTestNet() *Sequential {
	g := tensor.NewRNG(11)
	return NewSequential(
		NewConv2D("c1", g, 2, 3, 3, 1),
		NewLeakyReLU("a1", 0.01),
		NewConv2D("c2", g, 3, 2, 3, 1),
		NewLeakyReLU("a2", 0.01),
		NewConvTranspose2D("d", g, 2, 2, 1),
	)
}

func TestCloneSharedSharesWeightsOwnsCaches(t *testing.T) {
	m := buildTestNet()
	c := m.CloneShared()
	mp, cp := m.Params(), c.Params()
	if len(mp) != len(cp) {
		t.Fatalf("param count %d vs %d", len(mp), len(cp))
	}
	for i := range mp {
		if mp[i] != cp[i] {
			t.Fatalf("param %d not shared (distinct *Param)", i)
		}
	}
	x := tensor.Normal(tensor.NewRNG(1), 0, 1, 1, 2, 8, 8)
	a := m.Forward(x)
	b := c.Forward(x)
	if !a.Equal(b) {
		t.Fatal("clone forward differs from original")
	}
	// A weight update through the original is visible to the clone.
	mp[0].Value.Data()[0] += 0.5
	if !m.Forward(x).Equal(c.Forward(x)) {
		t.Fatal("clone stopped tracking shared weights")
	}
}

func TestCloneSharedConcurrentForward(t *testing.T) {
	// Two clones of one network run Forward concurrently (each with
	// different input sizes, to stress cache/arena isolation) — this is
	// the property the core.Engine session pool depends on; run under
	// -race it proves clones share nothing mutable.
	m := buildTestNet()
	want8 := m.CloneShared().Forward(tensor.Normal(tensor.NewRNG(2), 0, 1, 1, 2, 8, 8))
	want12 := m.CloneShared().Forward(tensor.Normal(tensor.NewRNG(3), 0, 1, 1, 2, 12, 12))
	var wg sync.WaitGroup
	fail := make([]bool, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := m.CloneShared()
			c.SetScratch(NewArena())
			for rep := 0; rep < 3; rep++ {
				if i%2 == 0 {
					x := tensor.Normal(tensor.NewRNG(2), 0, 1, 1, 2, 8, 8)
					if !c.Forward(x).Equal(want8) {
						fail[i] = true
					}
				} else {
					x := tensor.Normal(tensor.NewRNG(3), 0, 1, 1, 2, 12, 12)
					if !c.Forward(x).Equal(want12) {
						fail[i] = true
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, f := range fail {
		if f {
			t.Fatalf("goroutine %d observed a wrong clone result", i)
		}
	}
}

// TestCloneSharedAllLayerKinds: every layer kind a model is built from
// clones to the same function, and a layer that is not a SharedCloner
// is refused by name instead of being shared across goroutines.
func TestCloneSharedAllLayerKinds(t *testing.T) {
	g := tensor.NewRNG(5)
	m := NewSequential(
		NewConv2D("c", g, 2, 3, 3, 0),
		NewLeakyReLU("a", 0.01),
		NewConvTranspose2D("d", g, 3, 2, 3),
	)
	x := tensor.Normal(g, 0, 1, 2, 2, 6, 5)
	if !m.Forward(x).Equal(m.CloneShared().Forward(x)) {
		t.Fatal("clone differs for the conv/activation/deconv stack")
	}
	mustPanicWith(t, "non-cloner", "does not implement CloneShared", func() {
		NewSequential(NewReLU("r")).CloneShared()
	})
}
