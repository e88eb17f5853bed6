package mpi

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base (with slack for runtime helpers), failing the test otherwise.
// Goroutine counts are inherently noisy, so the check retries for a
// while before declaring a leak.
func waitGoroutines(t *testing.T, base int, context string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines alive, started with %d:\n%s", context, n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbandonedRequestsNoLeak is the Isend/Irecv lifecycle regression
// test (run under -race in CI): Requests abandoned without Wait must
// not hold a goroutine, and a World with posted-but-unwaited requests
// and undelivered in-flight messages must still shut down cleanly.
// This is exactly the state the overlapped halo pipeline leaves behind
// after its final step (phase-1 receives posted, never consumed).
func TestAbandonedRequestsNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	// In-process world: post receives that never complete and sends
	// nobody consumes, then walk away.
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		for i := 0; i < 8; i++ {
			c.Isend(right, 5, []float64{float64(i)}) // never received
			_ = c.Irecv(left, 6)                     // never sent, never waited
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "in-process world with abandoned requests")

	// The same pattern over TCP: abandoned receives, undelivered
	// sends, plus a waited round so real traffic flowed. Close must
	// drain the writers and reap every reader/writer goroutine.
	worlds := dialTestWorlds(t, 3)
	runTCP(t, worlds, func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		// One completed round trip.
		c.Isend(right, 1, []float64{1, 2, 3})
		if got := c.Irecv(left, 1).Wait(); len(got) != 3 {
			t.Errorf("rank %d: round trip got %d elements", c.Rank(), len(got))
		}
		// Abandoned operations.
		for i := 0; i < 4; i++ {
			c.Isend(right, 2, make([]float64, 100)) // delivered but never received
			_ = c.Irecv(left, 3)                    // never sent, never waited
		}
	})
	for _, tw := range worlds {
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base, "tcp world with abandoned requests")
}

// TestRequestWaitAfterClosePanics: a Request whose receive can never
// complete must fail loudly (panic through the rank function → Run
// error) rather than deadlock, once the transport is closed.
func TestRequestWaitAfterClosePanics(t *testing.T) {
	w := NewWorld(2)
	var req *Request
	var comm *Comm
	if err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			comm = c
			req = c.Irecv(1, 9) // rank 1 never sends
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wait on a closed world's request did not panic")
		}
	}()
	_ = comm // the request captured the endpoint; Wait must not hang
	req.Wait()
}

// TestRequestWaitTwice: Wait is idempotent and returns the same
// payload.
func TestRequestWaitTwice(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{7})
			return
		}
		r := c.Irecv(0, 3)
		a := r.Wait()
		b := r.Wait()
		if !r.Done() || len(a) != 1 || a[0] != 7 || &a[0] != &b[0] {
			t.Errorf("Wait not idempotent: %v vs %v", a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestsSpanRuns: the overlapped pipeline's contract — a Request
// posted during one Run is completed during a later Run over the same
// World (endpoints persist).
func TestRequestsSpanRuns(t *testing.T) {
	w := NewWorld(2)
	reqs := make([]*Request, 2)
	if err := w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		c.Isend(peer, 4, []float64{float64(10 + c.Rank())})
		reqs[c.Rank()] = c.Irecv(peer, 4)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *Comm) {
		got := reqs[c.Rank()].Wait()
		if want := float64(10 + (1 - c.Rank())); len(got) != 1 || got[0] != want {
			t.Errorf("rank %d: cross-run request = %v, want [%g]", c.Rank(), got, want)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Per-Run stats are deltas: the second Run only received.
	for r := 0; r < 2; r++ {
		s := w.stats[r]
		if s.MessagesSent != 0 || s.MessagesRecv != 1 {
			t.Errorf("rank %d second-run stats = %v, want 0 sent / 1 recv", r, s)
		}
	}
}
