package mpi

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestRingAllreduceMatchesTree(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{1, 3, 16, 100} {
			w := NewWorld(size)
			var mu sync.Mutex
			bad := false
			err := w.Run(func(c *Comm) {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(c.Rank()*n + i)
				}
				ring := c.RingAllreduce(data, OpSum)
				tree := c.Allreduce(data, OpSum)
				for i := range ring {
					if math.Abs(ring[i]-tree[i]) > 1e-9*(1+math.Abs(tree[i])) {
						mu.Lock()
						bad = true
						mu.Unlock()
					}
				}
			})
			if err != nil {
				t.Fatalf("size %d n %d: %v", size, n, err)
			}
			if bad {
				t.Fatalf("size %d n %d: ring != tree", size, n)
			}
		}
	}
}

// Property: ring allreduce equals the serial sum for random shapes.
func TestQuickRingAllreduceCorrect(t *testing.T) {
	f := func(sizeRaw, nRaw uint8, seed int64) bool {
		size := int(sizeRaw%7) + 1
		n := int(nRaw%24) + 1
		contrib := make([][]float64, size)
		want := make([]float64, n)
		for r := 0; r < size; r++ {
			contrib[r] = make([]float64, n)
			for i := range contrib[r] {
				v := math.Cos(float64(seed%997) + float64(r*17+i*3))
				contrib[r][i] = v
				want[i] += v
			}
		}
		ok := true
		var mu sync.Mutex
		w := NewWorld(size)
		if err := w.Run(func(c *Comm) {
			got := c.RingAllreduce(contrib[c.Rank()], OpSum)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRingAllreduceEmptyVector(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		got := c.RingAllreduce(nil, OpSum)
		if len(got) != 0 {
			t.Errorf("empty allreduce returned %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingAllreduceMaxOp(t *testing.T) {
	const size = 4
	w := NewWorld(size)
	err := w.Run(func(c *Comm) {
		data := []float64{float64(c.Rank()), -float64(c.Rank()), 1}
		got := c.RingAllreduce(data, OpMax)
		if got[0] != 3 || got[1] != 0 || got[2] != 1 {
			t.Errorf("rank %d: ring max = %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatter(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 6} {
		const n = 12
		w := NewWorld(size)
		err := w.Run(func(c *Comm) {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i) // same on every rank → sum = size·i
			}
			mine := c.ReduceScatter(data, OpSum)
			lo := c.Rank() * n / size
			hi := (c.Rank() + 1) * n / size
			if len(mine) != hi-lo {
				t.Errorf("size %d rank %d: chunk length %d, want %d", size, c.Rank(), len(mine), hi-lo)
				return
			}
			for i := range mine {
				want := float64(size) * float64(lo+i)
				if math.Abs(mine[i]-want) > 1e-12 {
					t.Errorf("size %d rank %d: chunk[%d] = %g, want %g", size, c.Rank(), i, mine[i], want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingMessageVolumeBandwidthOptimal(t *testing.T) {
	// Ring allreduce sends 2·(P-1)/P of the vector per rank; recursive
	// doubling sends log2(P) full vectors. For P=8 and a large vector,
	// the ring must move less data per rank.
	const p, n = 8, 4096
	ringWorld := NewWorld(p)
	err := ringWorld.Run(func(c *Comm) {
		c.RingAllreduce(make([]float64, n), OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	treeWorld := NewWorld(p)
	err = treeWorld.Run(func(c *Comm) {
		c.Allreduce(make([]float64, n), OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	ringBytes := ringWorld.stats[0].BytesSent
	treeBytes := treeWorld.stats[0].BytesSent
	if ringBytes >= treeBytes {
		t.Fatalf("ring (%d B) should beat tree (%d B) per rank at P=%d, n=%d", ringBytes, treeBytes, p, n)
	}
	// Quantitative: ring ≈ 2·(P-1)/P · n · 8 bytes.
	want := int64(2 * (p - 1) * n / p * 8)
	if math.Abs(float64(ringBytes-want)) > 0.05*float64(want) {
		t.Fatalf("ring volume %d B, want ≈%d B", ringBytes, want)
	}
}
