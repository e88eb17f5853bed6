package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// Message is one framed, tagged payload in flight between two ranks.
// It is the unit every Transport moves; matching (wildcards,
// non-overtaking per (source, tag)) happens above the transport, in
// Comm, so the ordering contract a Transport must provide is only
// per-(sender, receiver) FIFO delivery.
type Message struct {
	From int
	Tag  int
	Data []float64
}

// ErrTransportClosed is returned by transport operations after Close.
var ErrTransportClosed = errors.New("mpi: transport closed")

// Transport is the wire under a World: it moves framed tagged messages
// between rank endpoints. Two implementations ship with the package —
// the in-process channel transport (NewMemTransport, behind NewWorld)
// and the TCP transport (DialTCPTransport, behind DialTCP) — and they
// make the same guarantees:
//
//   - Send takes ownership of data (callers copy first) and preserves
//     per-(from, to) FIFO order. It may block for flow control
//     (bounded mailboxes / socket backpressure), mirroring MPI's
//     rendezvous behaviour for large backlogs.
//   - Recv blocks until a message addressed to the given local rank
//     arrives; queued messages are always drained before a close or
//     failure is reported.
//   - Close initiates shutdown: queued outbound messages are flushed
//     (drain), then blocked operations fail with ErrTransportClosed
//     instead of hanging.
//
// Everything above the interface — CommStats and NetModel accounting,
// tag matching, collectives, Cartesian topology — is layered uniformly
// over any Transport by Comm, so the two transports are
// behaviourally interchangeable (the cross-transport bit-identity
// tests assert it).
type Transport interface {
	// Size returns the number of ranks in the world this transport
	// connects.
	Size() int
	// Local returns the ranks hosted by this process, ascending. The
	// in-process transport hosts all of them; a TCP endpoint hosts one.
	Local() []int
	// Send delivers data from rank `from` to rank `to` with the given
	// tag. The transport owns data after the call.
	Send(from, to, tag int, data []float64) error
	// Recv returns the next message addressed to the local rank `rank`,
	// blocking until one arrives or the transport closes/fails.
	Recv(rank int) (Message, error)
	// Close shuts the transport down after flushing queued outbound
	// messages. It is idempotent.
	Close() error
}

// memTransport is the original in-process transport: one buffered
// channel per rank. It hosts every rank of the world, so it has no
// goroutines of its own — Send is a channel send, Recv a channel
// receive — and nothing to leak on Close.
type memTransport struct {
	mail  []chan Message
	local []int
	done  chan struct{}
	once  sync.Once
}

// NewMemTransport builds the in-process channel transport behind
// NewWorld: every rank of a world of the given size lives in this
// process, each with a mailbox of mailboxCapacity(size) messages.
func NewMemTransport(size int) Transport {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	capacity := mailboxCapacity(size)
	t := &memTransport{
		mail:  make([]chan Message, size),
		local: make([]int, size),
		done:  make(chan struct{}),
	}
	for i := range t.mail {
		t.mail[i] = make(chan Message, capacity)
		t.local[i] = i
	}
	return t
}

// Size implements Transport.
func (t *memTransport) Size() int { return len(t.mail) }

// Local implements Transport: every rank is in-process.
func (t *memTransport) Local() []int { return t.local }

// Send implements Transport. It blocks when the destination mailbox is
// full (backpressure), unless the transport closes first.
func (t *memTransport) Send(from, to, tag int, data []float64) error {
	if to < 0 || to >= len(t.mail) {
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", to, len(t.mail))
	}
	select {
	case t.mail[to] <- Message{From: from, Tag: tag, Data: data}:
		return nil
	case <-t.done:
		return ErrTransportClosed
	}
}

// Recv implements Transport. Messages already queued are drained even
// after Close (drain-before-fail).
func (t *memTransport) Recv(rank int) (Message, error) {
	// Prefer queued messages over the closed signal so a Close never
	// drops deliverable data.
	select {
	case m := <-t.mail[rank]:
		return m, nil
	default:
	}
	select {
	case m := <-t.mail[rank]:
		return m, nil
	case <-t.done:
		return Message{}, ErrTransportClosed
	}
}

// Close implements Transport. The channel transport has no goroutines
// or sockets; closing only unblocks stuck endpoints.
func (t *memTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
