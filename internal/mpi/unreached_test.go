package mpi

import "fmt"

// Code no binary, example or benchmark reaches (repolint's reach
// analyzer), kept out of the product tree and alive only because tests
// in this package are about it: the max/min reduction operators, the
// Barrier and Allgather collectives, the non-blocking Request API, the
// ring allreduce with its reduce-scatter, and the callback halo
// exchange on Cart. Delete each together with the tests CHANGES.md
// (PR 24) lists for it.

const (
	tagBarrier = 1 << 30
	tagAllgath = 1<<30 + 7
)

// OpMax keeps the elementwise maximum in dst.
func OpMax(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// OpMin keeps the elementwise minimum in dst.
func OpMin(dst, src []float64) {
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

// Barrier blocks until every rank has entered it. It uses the
// dissemination algorithm: ceil(log2 P) rounds of point-to-point
// messages, the standard barrier structure on clusters.
func (c *Comm) Barrier() {
	size := c.world.size
	if size == 1 {
		return
	}
	for dist := 1; dist < size; dist *= 2 {
		to := (c.rank + dist) % size
		from := (c.rank - dist + size) % size
		c.send(to, tagBarrier, nil)
		c.Recv(from, tagBarrier)
	}
}

// Allgather collects every rank's data on every rank, in rank order.
func (c *Comm) Allgather(data []float64) [][]float64 {
	size := c.world.size
	if size == 1 {
		return [][]float64{append([]float64(nil), data...)}
	}
	// Ring algorithm: P-1 steps, each forwarding the previous piece.
	out := make([][]float64, size)
	out[c.rank] = append([]float64(nil), data...)
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	cur := c.rank
	for step := 0; step < size-1; step++ {
		c.send(right, tagAllgath, out[cur])
		cur = (cur - 1 + size) % size
		out[cur] = c.Recv(left, tagAllgath)
	}
	return out
}

// Request represents an in-flight non-blocking operation. A Request
// holds no goroutine or OS resource of its own — receives match
// lazily inside Wait, sends complete at post time against the
// transport's buffering — so a Request abandoned without Wait leaks
// nothing and never blocks World.Close (the regression tests assert
// this with the race detector).
type Request struct {
	done bool
	data []float64
	wait func() []float64
}

// Wait blocks until the operation completes and returns the received
// payload (nil for sends). Waiting twice returns the same payload.
func (r *Request) Wait() []float64 {
	if !r.done {
		r.data = r.wait()
		r.done = true
	}
	return r.data
}

// Done reports whether the request has already completed (always true
// for sends, true for receives after Wait).
func (r *Request) Done() bool { return r.done }

// Isend starts a non-blocking send. Sends complete against the
// transport's buffering (mailbox or outbound queue), so the operation
// finishes at post time; the Request exists for API symmetry with MPI
// code.
func (c *Comm) Isend(to, tag int, data []float64) *Request {
	c.Send(to, tag, data)
	return &Request{done: true}
}

// Irecv starts a non-blocking receive. The matching and blocking work
// happens when Wait is called; this mirrors the common MPI usage
// pattern of posting receives first and waiting later.
func (c *Comm) Irecv(from, tag int) *Request {
	return &Request{wait: func() []float64 { return c.Recv(from, tag) }}
}

// WaitAll waits on every request and returns their payloads in order.
func WaitAll(reqs ...*Request) [][]float64 {
	out := make([][]float64, len(reqs))
	for i, r := range reqs {
		out[i] = r.Wait()
	}
	return out
}

// Internal tags for the ring algorithms.
const (
	tagRingRS = 1<<30 + 8 // reduce-scatter phase
	tagRingAG = 1<<30 + 9 // allgather phase
)

// RingAllreduce is the bandwidth-optimal ring allreduce popularized by
// large-scale deep-learning frameworks (Horovod-style): a
// reduce-scatter ring of P-1 steps followed by an allgather ring of
// P-1 steps. Each rank sends 2·(P-1)/P of the vector in total,
// independent of P — cheaper than recursive doubling's log₂P full
// vectors for large payloads, at the cost of 2(P-1) latency terms.
// The data-parallel baseline's weight averaging is exactly the
// workload this algorithm was invented for.
//
// The result is identical to Allreduce(data, op) on every rank, up to
// floating-point reassociation.
func (c *Comm) RingAllreduce(data []float64, op Op) []float64 {
	size := c.world.size
	acc := append([]float64(nil), data...)
	if size == 1 {
		return acc
	}
	n := len(acc)
	if n == 0 {
		// Degenerate: nothing to reduce, but keep the ring's
		// synchronization structure.
		c.Barrier()
		return acc
	}
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size

	// Chunk k covers the balanced slice [k·n/P, (k+1)·n/P).
	lohi := func(k int) (int, int) {
		k = ((k % size) + size) % size
		return k * n / size, (k + 1) * n / size
	}

	// Phase 1 — reduce-scatter: after P-1 steps, rank r owns the
	// fully reduced chunk (r+1) mod P.
	for step := 0; step < size-1; step++ {
		sendIdx := (c.rank - step + size) % size
		recvIdx := (c.rank - step - 1 + size) % size
		slo, shi := lohi(sendIdx)
		c.send(right, tagRingRS, acc[slo:shi])
		recv := c.Recv(left, tagRingRS)
		rlo, rhi := lohi(recvIdx)
		if len(recv) != rhi-rlo {
			panic(fmt.Sprintf("mpi: RingAllreduce chunk length %d, want %d", len(recv), rhi-rlo))
		}
		op(acc[rlo:rhi], recv)
	}

	// Phase 2 — allgather: circulate the reduced chunks.
	for step := 0; step < size-1; step++ {
		sendIdx := (c.rank + 1 - step + size) % size
		recvIdx := (c.rank - step + size) % size
		slo, shi := lohi(sendIdx)
		c.send(right, tagRingAG, acc[slo:shi])
		recv := c.Recv(left, tagRingAG)
		rlo, rhi := lohi(recvIdx)
		copy(acc[rlo:rhi], recv)
	}
	return acc
}

// ReduceScatter reduces every rank's data with op and leaves rank r
// with only its chunk r (balanced split of the vector). Returns the
// local chunk.
func (c *Comm) ReduceScatter(data []float64, op Op) []float64 {
	size := c.world.size
	n := len(data)
	lohi := func(k int) (int, int) {
		return k * n / size, (k + 1) * n / size
	}
	if size == 1 {
		return append([]float64(nil), data...)
	}
	acc := append([]float64(nil), data...)
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := (c.rank - step + size) % size
		recvIdx := (c.rank - step - 1 + size) % size
		slo, shi := lohi(sendIdx)
		c.send(right, tagRingRS, acc[slo:shi])
		recv := c.Recv(left, tagRingRS)
		rlo, rhi := lohi(recvIdx)
		op(acc[rlo:rhi], recv)
	}
	// After the loop rank r holds the reduced chunk (r+1) mod size;
	// rotate ownership so rank r returns chunk r.
	ownIdx := (c.rank + 1) % size
	olo, ohi := lohi(ownIdx)
	own := append([]float64(nil), acc[olo:ohi]...)
	// Send the owned chunk to the rank it belongs to (ownIdx), receive
	// ours from (rank-1+size)%size... ownership: rank r owns chunk
	// (r+1)%size, so chunk r is held by rank (r-1+size)%size.
	c.send(ownIdx, tagRingAG, own)
	mine := c.Recv((c.rank-1+size)%size, tagRingAG)
	return mine
}

// haloTag derives a distinct user-level tag per direction so that the
// four concurrent exchanges of a halo swap never cross-match.
func haloTag(d Direction) int { return 100 + int(d) }

// ExchangeHalos performs the fully point-to-point halo exchange of
// §III of the paper: for each direction with a neighbour, send the
// payload produced by pack(d) and deliver the neighbour's payload to
// unpack(d, data). All sends are posted before any receive, the
// standard deadlock-free pattern.
func (ct *Cart) ExchangeHalos(pack func(d Direction) []float64, unpack func(d Direction, data []float64)) {
	for d := Direction(0); d <= North; d++ {
		if nb := ct.Neighbor(d); nb != NoNeighbor {
			ct.comm.Send(nb, haloTag(d), pack(d))
		}
	}
	for d := Direction(0); d <= North; d++ {
		if nb := ct.Neighbor(d); nb != NoNeighbor {
			// The neighbour sent toward us using the opposite direction's tag.
			unpack(d, ct.comm.Recv(nb, haloTag(d.Opposite())))
		}
	}
}
