package mpi

import "fmt"

// Op is a reduction operator combining src into dst elementwise.
// Operators must be associative and commutative.
type Op func(dst, src []float64)

// OpSum accumulates dst += src.
func OpSum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Bcast distributes root's data to every rank and returns each rank's
// copy. Non-root ranks may pass nil. The algorithm is a binomial tree
// rooted at root: log2 P rounds.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	size := c.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: Bcast invalid root %d", root))
	}
	if size == 1 {
		return append([]float64(nil), data...)
	}
	// Work in a rotated rank space where the root is rank 0. The tree
	// is the standard binomial tree: node v's parent clears v's lowest
	// set bit, so v's children are v + 2^k for every 2^k below v's
	// lowest set bit (all powers of two for the root).
	vrank := (c.rank - root + size) % size
	var buf []float64
	if vrank == 0 {
		buf = append([]float64(nil), data...)
	} else {
		parent := vrank & (vrank - 1)
		buf = c.Recv((parent+root)%size, tagBcast)
	}
	for bit := childBitStart(vrank, size); bit >= 1; bit >>= 1 {
		child := vrank + bit
		if child < size {
			c.send((child+root)%size, tagBcast, buf)
		}
	}
	return buf
}

// childBitStart returns the largest power of two that can extend vrank
// downward in the binomial tree: half the lowest set bit of vrank, or
// for the root the largest power of two below the (rounded-up) world
// size.
func childBitStart(vrank, size int) int {
	if vrank == 0 {
		limit := 1
		for limit < size {
			limit <<= 1
		}
		return limit >> 1
	}
	low := vrank & (-vrank)
	return low >> 1
}

// Reduce combines every rank's data with op; the result lands on root
// (other ranks get nil). The algorithm is a binomial tree mirrored from
// Bcast.
func (c *Comm) Reduce(root int, data []float64, op Op) []float64 {
	size := c.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: Reduce invalid root %d", root))
	}
	acc := append([]float64(nil), data...)
	if size == 1 {
		return acc
	}
	vrank := (c.rank - root + size) % size
	// Children send up the tree; parents fold.
	for bit := 1; bit < size; bit *= 2 {
		if vrank&bit != 0 {
			parent := vrank &^ bit
			c.send((parent+root)%size, tagReduce, acc)
			return nil
		}
		child := vrank | bit
		if child < size {
			recv := c.Recv((child+root)%size, tagReduce)
			if len(recv) != len(acc) {
				panic(fmt.Sprintf("mpi: Reduce length mismatch %d vs %d", len(recv), len(acc)))
			}
			op(acc, recv)
		}
	}
	return acc
}

// Allreduce combines every rank's data with op and returns the result
// on every rank. For power-of-two sizes it uses recursive doubling
// (log2 P rounds, each rank sends and receives once per round);
// otherwise it falls back to Reduce followed by Bcast.
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	size := c.world.size
	acc := append([]float64(nil), data...)
	if size == 1 {
		return acc
	}
	if size&(size-1) == 0 {
		for dist := 1; dist < size; dist *= 2 {
			peer := c.rank ^ dist
			recv := c.SendRecv(peer, tagAllred, acc, peer, tagAllred)
			if len(recv) != len(acc) {
				panic(fmt.Sprintf("mpi: Allreduce length mismatch %d vs %d", len(recv), len(acc)))
			}
			op(acc, recv)
		}
		return acc
	}
	red := c.Reduce(0, acc, op)
	return c.Bcast(0, red)
}

// Gather collects every rank's data on root, in rank order. Non-root
// ranks get nil. Contributions may have different lengths.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	size := c.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: Gather invalid root %d", root))
	}
	if c.rank != root {
		c.send(root, tagGather, data)
		return nil
	}
	out := make([][]float64, size)
	out[root] = append([]float64(nil), data...)
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		out[r] = c.Recv(r, tagGather)
	}
	return out
}

// AllreduceScalar is a convenience wrapper reducing a single value.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}
