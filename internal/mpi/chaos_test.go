package mpi_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
)

// memWorld builds an in-process world whose sends go through rules.
func memWorld(size int, rules ...mpitest.Rule) *mpi.World {
	return mpi.NewWorldOn(mpitest.Wrap(mpi.NewMemTransport(size), rules...))
}

// tcpWorlds assembles an n-rank TCP world whose ranks all live in this
// test process, each endpoint's sends going through rules. The worlds
// are indexed by rank and closed when the test ends.
func tcpWorlds(t *testing.T, n int, rules ...mpitest.Rule) []*mpi.World {
	t.Helper()
	addrs, err := mpi.ReserveLocalAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*mpi.World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := mpi.DialTCPTransport(mpi.TCPConfig{Rank: r, Peers: addrs, HandshakeTimeout: 20 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			worlds[r] = mpi.NewWorldOn(mpitest.Wrap(tr, rules...))
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return worlds
}

// ring performs `rounds` of neighbour exchange on a ring and records
// rank 0's received values into got.
func ring(rounds int, got *[]float64) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		r, n := c.Rank(), c.Size()
		for k := 0; k < rounds; k++ {
			c.Send((r+1)%n, 7, []float64{float64(r*1000 + k)})
			v := c.Recv((r+n-1)%n, 7)
			if r == 0 {
				*got = append(*got, v...)
			}
		}
	}
}

// assertRing checks rank 0's values from a ring of size n: round k
// delivers rank n-1's k-th message, bit for bit and in order.
func assertRing(t *testing.T, got []float64, n, rounds int) {
	t.Helper()
	if len(got) != rounds {
		t.Fatalf("rank 0 received %d messages, want %d", len(got), rounds)
	}
	for k, v := range got {
		if want := float64((n-1)*1000 + k); v != want {
			t.Fatalf("round %d: got %v, want %v (a fault broke FIFO)", k, v, want)
		}
	}
}

// TestChaosPassThrough asserts a fixture without rules changes
// nothing: values and stats are those of the bare transport.
func TestChaosPassThrough(t *testing.T) {
	w := memWorld(4)
	var got []float64
	if err := w.Run(ring(5, &got)); err != nil {
		t.Fatal(err)
	}
	assertRing(t, got, 4, 5)
	if s := w.TotalStats(); s.MessagesRecv != 4*5 || s.BytesRecv != 4*5*8 {
		t.Fatalf("stats %+v, want 20 messages of 8 bytes", s)
	}
}

// TestChaosDelayPreservesOrderAndValues asserts the order-preserving
// faults deliver every message, in order, bit for bit.
func TestChaosDelayPreservesOrderAndValues(t *testing.T) {
	w := memWorld(3,
		mpitest.Rule{From: -1, To: -1, Delay: time.Millisecond},
		mpitest.Rule{From: -1, To: 0, Jitter: 2 * time.Millisecond})
	var got []float64
	if err := w.Run(ring(8, &got)); err != nil {
		t.Fatal(err)
	}
	assertRing(t, got, 3, 8)
}

// starve runs rank 1 sending `sends` messages to rank 0 while rank 0
// receives `recvs`, closes the world after the deadline as
// Session.Step does when its context expires, and returns how long Run
// took and its error.
func starve(w *mpi.World, sends, recvs int, deadline time.Duration) (time.Duration, error) {
	timer := time.AfterFunc(deadline, func() { w.Close() })
	defer timer.Stop()
	start := time.Now()
	err := w.Run(func(c *mpi.Comm) {
		if c.Rank() == 1 {
			for k := 0; k < sends; k++ {
				c.Send(0, 3, []float64{float64(k)})
			}
			return
		}
		for k := 0; k < recvs; k++ {
			c.Recv(1, 3)
		}
	})
	return time.Since(start), err
}

// assertStarved checks a starved Run ended by its deadline, not before
// and not much after, with rank 0's panic naming the (from, tag) it
// waited on.
func assertStarved(t *testing.T, err error, took, deadline time.Duration) {
	t.Helper()
	var rp *mpi.RankPanicError
	if !errors.As(err, &rp) || rp.Rank != 0 {
		t.Fatalf("err = %v, want rank 0's *RankPanicError", err)
	}
	if !strings.Contains(err.Error(), "rank 0 recv (from 1, tag 3)") {
		t.Fatalf("error does not name the starved receive: %v", err)
	}
	if took < deadline || took > deadline+time.Second {
		t.Fatalf("starved Run returned after %v, deadline %v", took, deadline)
	}
}

// TestChaosTrailingDropHitsDeadline asserts that losing the tail of a
// link's traffic — a partition armed after the first message, so no
// later arrival reveals the loss — ends the starved receive at the
// caller's deadline, naming the rank and the (from, tag) it waited on.
func TestChaosTrailingDropHitsDeadline(t *testing.T) {
	const deadline = 300 * time.Millisecond
	w := memWorld(2, mpitest.Rule{From: 1, To: 0, After: 1, Partition: true})
	took, err := starve(w, 2, 2, deadline)
	assertStarved(t, err, took, deadline)
}

// TestChaosPartitionHitsDeadline asserts a fully cut link starves its
// receiver into a bounded, attributed failure — never a hang.
func TestChaosPartitionHitsDeadline(t *testing.T) {
	const deadline = 300 * time.Millisecond
	w := memWorld(2, mpitest.Rule{From: 1, To: 0, Partition: true})
	took, err := starve(w, 1, 1, deadline)
	assertStarved(t, err, took, deadline)
}

// TestChaosOverTCP asserts the fixture composes with the TCP
// transport: under delay and jitter on every socket link, a 4-rank
// ring of goroutine ranks delivers what the fault-free in-process
// ring does, bit for bit and in order.
func TestChaosOverTCP(t *testing.T) {
	const n, rounds = 4, 6
	worlds := tcpWorlds(t, n,
		mpitest.Rule{From: -1, To: -1, Delay: 200 * time.Microsecond},
		mpitest.Rule{From: -1, To: -1, Jitter: time.Millisecond})
	var got []float64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			errs[r] = w.Run(ring(rounds, &mine))
			if r == 0 {
				got = mine
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	assertRing(t, got, n, rounds)
}
