// Package mpitest is the chaos fixture of the mpi and core tests: a
// Transport wrapper that delays, partitions or crashes the links its
// rules match, so the runtime's two fault contracts can be exercised
// on dirty paths as well as clean ones:
//
//   - faults that keep per-link order (Delay, Jitter) leave every
//     result bit-identical to a fault-free run;
//   - faults that stop traffic (Partition, Crash) end a blocked step
//     within its caller's deadline, with an error naming the rank and
//     the (from, tag) it waited on — never a hang.
//
// Build a world with mpi.NewWorldOn(mpitest.Wrap(inner, rules...)),
// where inner is mpi.NewMemTransport or mpi.DialTCPTransport. No
// binary imports this package.
package mpitest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
)

// Rule injects faults into every message on the directed links it
// matches, from the link's message After+1 on (messages are counted per
// directed link, from 1). Faults combine: a matching Partition or
// Crash rule ends the message, holds add up.
//
//repolint:allow reach -- the chaos fixture of mpi TestChaos* and core TestSessionChaos* and TestFailedStepBreaksSession; tests are its only callers
type Rule struct {
	// From and To select the directed link; -1 matches any rank.
	From, To int
	// After arms the rule from the link's message After+1 on.
	After int
	// Delay holds each message this long inside Send. The next message
	// on the link cannot be submitted before this one is in the inner
	// transport, so per-link FIFO order holds.
	Delay time.Duration
	// Jitter holds each message for a time in [0, Jitter] that is a
	// pure function of the link and the message's number: the
	// interleaving across links changes, per-link order does not.
	Jitter time.Duration
	// Partition discards each message silently; a receiver waiting on
	// the link starves until its caller closes the world.
	Partition bool
	// Crash makes Send fail, so the sending rank panics (mpi.Comm
	// panics on a transport error): a rank that dies before its send.
	Crash bool
}

// Wrap returns a transport that applies rules to inner's sends. Every
// process of a TCP world wraps its own endpoint; a rule acts where its
// link's sender lives.
//
//repolint:allow reach -- the chaos fixture of mpi TestChaos* and core TestSessionChaos* and TestFailedStepBreaksSession; tests are its only callers
func Wrap(inner mpi.Transport, rules ...Rule) mpi.Transport {
	return &transport{Transport: inner, rules: rules, sent: make(map[[2]int]int)}
}

// transport forwards Size, Local, Recv and Close to the inner
// transport and applies the rules in Send.
//
//repolint:allow reach -- the chaos fixture of mpi TestChaos* and core TestSessionChaos* and TestFailedStepBreaksSession; tests are its only callers
type transport struct {
	mpi.Transport
	rules []Rule

	mu   sync.Mutex
	sent map[[2]int]int // messages offered to Send, per directed link
}

// Send implements mpi.Transport.
func (t *transport) Send(from, to, tag int, data []float64) error {
	t.mu.Lock()
	t.sent[[2]int{from, to}]++
	seq := t.sent[[2]int{from, to}]
	t.mu.Unlock()
	var hold time.Duration
	for _, r := range t.rules {
		if (r.From >= 0 && r.From != from) || (r.To >= 0 && r.To != to) || seq <= r.After {
			continue
		}
		switch {
		case r.Crash:
			return fmt.Errorf("mpitest: crash on link %d->%d at message %d", from, to, seq)
		case r.Partition:
			return nil
		}
		hold += r.Delay
		if r.Jitter > 0 {
			hold += time.Duration(mix(uint64(from)<<48^uint64(to)<<32^uint64(seq)) % uint64(r.Jitter+1))
		}
	}
	time.Sleep(hold)
	return t.Transport.Send(from, to, tag, data)
}

// mix is the splitmix64 finalizer: a well-spread hash of its input.
//
//repolint:allow reach -- the chaos fixture of mpi TestChaos* and core TestSessionChaos* and TestFailedStepBreaksSession; tests are its only callers
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
