// Package mpi implements a small message-passing runtime with MPI-like
// semantics. It is the communication substrate for the parallel
// training and inference schemes in this repository, standing in for
// the MPI library used by the paper.
//
// A World holds a fixed number of ranks on top of a pluggable
// Transport. World.Run executes a rank function for every rank the
// transport hosts in this process and hands each a *Comm, which
// supports tagged blocking point-to-point messages (Send/Recv with
// AnySource/AnyTag wildcards and MPI's non-overtaking guarantee per
// (source, tag) pair) and the collectives the schemes use (Bcast,
// Reduce, Allreduce, Gather) implemented with binomial-tree and
// recursive-doubling algorithms on top of the point-to-point layer —
// the same structure a real MPI implementation uses.
//
// Two transports ship with the package (see DESIGN.md §8):
//
//   - NewWorld builds the in-process transport (goroutines and
//     channels): every rank lives in this process and Run launches one
//     goroutine per rank.
//   - DialTCP joins this process, as one rank, to a world of
//     independently launched processes over length-prefixed TCP
//     framing; Run then executes the rank function once, for the local
//     rank.
//
// Both build their World with NewWorldOn, which takes any Transport.
// A rank that panics closes the world, so no peer waits for ever on
// it; a caller bounds a wait on a silent peer by closing the world
// itself (World.Run).
//
// Because the in-process transport is shared memory, real wire time is
// near zero there; an optional NetModel charges each message a
// configurable latency + size/bandwidth virtual cost, accumulated per
// rank, so that experiments can report communication costs
// representative of a cluster interconnect (see DESIGN.md §5). The
// accounting lives above the transport, so CommStats are identical
// across transports for the same traffic.
package mpi

import (
	"fmt"
	"sync"
)

// AnySource matches messages from any sender in Recv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv.
const AnyTag = -1

// Internal tag space for collectives. User tags must be small
// non-negative integers; collective tags live far above them.
const (
	tagBcast  = 1<<30 + 1
	tagReduce = 1<<30 + 2
	tagAllred = 1<<30 + 3
	tagGather = 1<<30 + 4
)

// World is a communicator universe: a fixed set of ranks over one
// Transport. Depending on the transport, this process may host every
// rank (NewWorld) or a single one (DialTCP).
type World struct {
	size  int
	tr    Transport
	model *NetModel
	stats []CommStats

	mu    sync.Mutex
	comms map[int]*Comm // persistent per-rank endpoints, created lazily
}

// Option configures a World.
type Option func(*World)

// WithNetModel attaches a virtual network-cost model; every message is
// charged latency + bytes/bandwidth of virtual time on both endpoints.
func WithNetModel(m *NetModel) Option {
	return func(w *World) { w.model = m }
}

// mailboxCapacity is the per-rank buffering, max(256, 4*size) messages.
// Send blocks when the destination mailbox is full, mirroring MPI's
// rendezvous behaviour for large backlogs; on the TCP transport the
// same capacity bounds the per-peer outbound queue and the local inbox.
func mailboxCapacity(size int) int {
	capacity := 4 * size
	if capacity < 256 {
		capacity = 256
	}
	return capacity
}

// NewWorld creates a World of the given number of ranks over the
// in-process channel transport (all ranks hosted by this process).
func NewWorld(size int, opts ...Option) *World {
	return NewWorldOn(NewMemTransport(size), opts...)
}

// NewWorldOn creates a World over the given transport, which the world
// owns from then on: Close closes it. NewWorld and DialTCP build their
// worlds through it, and a test can hand it a transport that wraps one
// of theirs.
func NewWorldOn(tr Transport, opts ...Option) *World {
	w := &World{
		size:  tr.Size(),
		tr:    tr,
		stats: make([]CommStats, tr.Size()),
		comms: make(map[int]*Comm),
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// LocalRanks returns the ranks hosted by this process, ascending: all
// of them for an in-process world, exactly one for a TCP endpoint.
func (w *World) LocalRanks() []int {
	return append([]int(nil), w.tr.Local()...)
}

// Distributed reports whether some ranks of this world live in other
// processes.
func (w *World) Distributed() bool { return len(w.tr.Local()) != w.size }

// Close shuts the world's transport down: queued outbound messages are
// flushed, then any blocked or future operation fails instead of
// hanging — the drain half of the close/drain contract. Closing an
// in-process world is optional (its transport holds no goroutines or
// sockets); closing a TCP world releases its connections and
// background readers/writers. Close is idempotent.
func (w *World) Close() error { return w.tr.Close() }

// TotalStats returns the sum of all per-rank statistics from the most
// recent Run.
func (w *World) TotalStats() CommStats {
	var t CommStats
	for _, s := range w.stats {
		t.MessagesSent += s.MessagesSent
		t.BytesSent += s.BytesSent
		t.MessagesRecv += s.MessagesRecv
		t.BytesRecv += s.BytesRecv
		t.VirtualCommSeconds += s.VirtualCommSeconds
	}
	return t
}

// comm returns the persistent endpoint for a rank, creating it on
// first use. Endpoints persist across Run calls so that a message
// received but not yet matched in one Run is still pending in the next.
func (w *World) comm(rank int) *Comm {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.comms[rank]
	if c == nil {
		c = &Comm{rank: rank, world: w}
		w.comms[rank] = c
	}
	return c
}

// RankPanicError reports that a rank's function panicked during Run.
type RankPanicError struct {
	Rank  int
	Value any
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Value)
}

// Run executes f once per locally hosted rank, each in its own
// goroutine, and waits for all of them. On an in-process world that is
// every rank; on a TCP world it is the single rank this process joined
// as. Per-rank communication statistics for the Run (deltas, not
// lifetime totals) are gathered into the World afterwards.
//
// If a rank panics, Run closes the world at once, so every local rank
// blocked in Send or Recv fails with ErrTransportClosed instead of
// waiting for a message the dead rank will never send, and Run returns
// a *RankPanicError for the first rank that panicked. The world is
// unusable afterwards. Run itself has no other bound: a caller that
// must not wait for ever on a silent peer closes the world when its
// deadline passes (Session.Step does this with its context), which
// fails the blocked ranks the same way.
func (w *World) Run(f func(c *Comm)) error {
	local := w.tr.Local()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first *RankPanicError
	)
	before := make([]CommStats, len(local))
	for i, r := range local {
		before[i] = w.comm(r).stats
	}
	for _, r := range local {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					once.Do(func() {
						first = &RankPanicError{Rank: rank, Value: v}
						w.tr.Close()
					})
				}
			}()
			f(w.comm(rank))
		}(r)
	}
	wg.Wait()
	for i, r := range local {
		w.stats[r] = statsDelta(w.comm(r).stats, before[i])
	}
	if first != nil {
		return first
	}
	return nil
}

// statsDelta returns a - b componentwise.
func statsDelta(a, b CommStats) CommStats {
	return CommStats{
		MessagesSent:       a.MessagesSent - b.MessagesSent,
		BytesSent:          a.BytesSent - b.BytesSent,
		MessagesRecv:       a.MessagesRecv - b.MessagesRecv,
		BytesRecv:          a.BytesRecv - b.BytesRecv,
		VirtualCommSeconds: a.VirtualCommSeconds - b.VirtualCommSeconds,
	}
}

// Comm is one rank's endpoint into the World. A Comm must only be used
// by one goroutine at a time — normally the goroutine Run is currently
// executing for its rank. Endpoints persist across Run calls (with the
// WaitGroup inside Run ordering the handoff), which is what lets a
// message queued during one Run be received during the next.
type Comm struct {
	rank    int
	world   *World
	pending []Message // received but not yet matched
	stats   CommStats
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Stats returns the statistics accumulated so far by this rank across
// the world's lifetime (per-Run deltas are available from
// World.Stats).
func (c *Comm) Stats() CommStats { return c.stats }

// Send delivers a copy of data to rank `to` with the given tag. It
// blocks only if the destination's buffering is exhausted (mailbox on
// the in-process transport, outbound queue + socket backpressure on
// TCP). Sending to self is allowed (the message is matched by a later
// Recv on the same rank).
func (c *Comm) Send(to, tag int, data []float64) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", to, c.world.size))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Send with negative tag %d", tag))
	}
	c.send(to, tag, data)
}

func (c *Comm) send(to, tag int, data []float64) {
	buf := append([]float64(nil), data...)
	if err := c.world.tr.Send(c.rank, to, tag, buf); err != nil {
		panic(fmt.Sprintf("mpi: rank %d send to %d (tag %d): %v", c.rank, to, tag, err))
	}
	c.stats.MessagesSent++
	c.stats.BytesSent += int64(8 * len(buf))
	if m := c.world.model; m != nil {
		c.stats.VirtualCommSeconds += m.Cost(8 * len(buf))
	}
}

// Recv blocks until a message matching (from, tag) is available and
// returns its payload. Use AnySource and/or AnyTag as wildcards.
// Messages from the same sender with the same tag are received in the
// order they were sent (non-overtaking).
func (c *Comm) Recv(from, tag int) []float64 {
	data, _, _ := c.RecvStatus(from, tag)
	return data
}

// RecvStatus is Recv but also reports the actual source and tag, which
// matters when wildcards were used.
func (c *Comm) RecvStatus(from, tag int) (data []float64, actualFrom, actualTag int) {
	// First look through messages that arrived earlier but didn't match
	// the Recv that pulled them out of the mailbox.
	for i, m := range c.pending {
		if matches(m, from, tag) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			c.account(m)
			return m.Data, m.From, m.Tag
		}
	}
	for {
		m, err := c.world.tr.Recv(c.rank)
		if err != nil {
			panic(fmt.Sprintf("mpi: rank %d recv (from %d, tag %d): %v", c.rank, from, tag, err))
		}
		if matches(m, from, tag) {
			c.account(m)
			return m.Data, m.From, m.Tag
		}
		c.pending = append(c.pending, m)
	}
}

func (c *Comm) account(m Message) {
	c.stats.MessagesRecv++
	c.stats.BytesRecv += int64(8 * len(m.Data))
	if mod := c.world.model; mod != nil {
		c.stats.VirtualCommSeconds += mod.Cost(8 * len(m.Data))
	}
}

func matches(m Message, from, tag int) bool {
	return (from == AnySource || m.From == from) && (tag == AnyTag || m.Tag == tag)
}

// SendRecv performs a combined send to `to` and receive from `from`
// with the same tag, the deadlock-free building block for halo
// exchanges. Because sends are buffered, this is simply a Send followed
// by a Recv.
func (c *Comm) SendRecv(to, sendTag int, sendData []float64, from, recvTag int) []float64 {
	c.Send(to, sendTag, sendData)
	return c.Recv(from, recvTag)
}
