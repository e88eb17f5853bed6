package mpi

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1, 2}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the message in flight
			c.Barrier()
		} else {
			c.Barrier()
			got := c.Recv(0, 0)
			if got[0] != 1 {
				t.Errorf("Send aliased caller buffer: got %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingAndWildcards(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{5})
			c.Send(1, 3, []float64{3})
			c.Send(1, 4, []float64{4})
		} else {
			// Receive out of order by tag; mismatches go to pending.
			if got := c.Recv(0, 3); got[0] != 3 {
				t.Errorf("tag 3: got %v", got)
			}
			if got := c.Recv(AnySource, 5); got[0] != 5 {
				t.Errorf("tag 5: got %v", got)
			}
			data, from, tag := c.RecvStatus(AnySource, AnyTag)
			if data[0] != 4 || from != 0 || tag != 4 {
				t.Errorf("wildcard recv = %v from %d tag %d", data, from, tag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.Send(1, 1, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 20; i++ {
				got := c.Recv(0, 1)
				if got[0] != float64(i) {
					t.Errorf("message %d overtaken: got %v", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) {
		c.Send(0, 9, []float64{42})
		if got := c.Recv(0, 9); got[0] != 42 {
			t.Errorf("self send: got %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		r1 := c.Irecv(peer, 1)
		r2 := c.Irecv(peer, 2)
		c.Isend(peer, 2, []float64{2})
		c.Isend(peer, 1, []float64{1})
		got := WaitAll(r1, r2)
		if got[0][0] != 1 || got[1][0] != 2 {
			t.Errorf("WaitAll = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	var mu sync.Mutex
	phase1 := 0
	err := w.Run(func(c *Comm) {
		mu.Lock()
		phase1++
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		if phase1 != P {
			t.Errorf("rank %d passed barrier before all entered (%d/%d)", c.Rank(), phase1, P)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8} {
		for root := 0; root < size; root++ {
			w := NewWorld(size)
			err := w.Run(func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{float64(root), 2, 3}
				}
				got := c.Bcast(root, data)
				if len(got) != 3 || got[0] != float64(root) {
					t.Errorf("size %d root %d rank %d: Bcast = %v", size, root, c.Rank(), got)
				}
			})
			if err != nil {
				t.Fatalf("size %d root %d: %v", size, root, err)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 6, 8} {
		w := NewWorld(size)
		err := w.Run(func(c *Comm) {
			data := []float64{float64(c.Rank()), 1}
			got := c.Reduce(0, data, OpSum)
			if c.Rank() == 0 {
				wantSum := float64(size*(size-1)) / 2
				if got[0] != wantSum || got[1] != float64(size) {
					t.Errorf("size %d: Reduce = %v, want [%g %d]", size, got, wantSum, size)
				}
			} else if got != nil {
				t.Errorf("non-root got non-nil Reduce result")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceOpsAndSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8, 16} {
		w := NewWorld(size)
		err := w.Run(func(c *Comm) {
			r := float64(c.Rank())
			sum := c.Allreduce([]float64{r, -r}, OpSum)
			wantSum := float64(size*(size-1)) / 2
			if sum[0] != wantSum || sum[1] != -wantSum {
				t.Errorf("size %d rank %d: Allreduce sum = %v", size, c.Rank(), sum)
			}
			max := c.AllreduceScalar(r, OpMax)
			if max != float64(size-1) {
				t.Errorf("size %d: Allreduce max = %g", size, max)
			}
			min := c.AllreduceScalar(r+1, OpMin)
			if min != 1 {
				t.Errorf("size %d: Allreduce min = %g", size, min)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Property: Allreduce(sum) equals the serial sum for random
// contributions, any world size 1..9, any vector length 1..16.
func TestQuickAllreduceMatchesSerial(t *testing.T) {
	f := func(sizeRaw, lenRaw uint8, seed int64) bool {
		size := int(sizeRaw%9) + 1
		n := int(lenRaw%16) + 1
		// Deterministic per-rank contributions derived from seed.
		contrib := make([][]float64, size)
		want := make([]float64, n)
		for r := 0; r < size; r++ {
			contrib[r] = make([]float64, n)
			for i := 0; i < n; i++ {
				v := math.Sin(float64(seed%1000)+float64(r*31+i*7)) * 10
				contrib[r][i] = v
				want[i] += v
			}
		}
		ok := true
		var mu sync.Mutex
		w := NewWorld(size)
		if err := w.Run(func(c *Comm) {
			got := c.Allreduce(contrib[c.Rank()], OpSum)
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

func TestGatherScatter(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	err := w.Run(func(c *Comm) {
		got := c.Gather(2, []float64{float64(c.Rank() * 10)})
		if c.Rank() == 2 {
			for r := 0; r < P; r++ {
				if got[r][0] != float64(r*10) {
					t.Errorf("Gather[%d] = %v", r, got[r])
				}
			}
		} else if got != nil {
			t.Errorf("non-root Gather non-nil")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7} {
		w := NewWorld(size)
		err := w.Run(func(c *Comm) {
			got := c.Allgather([]float64{float64(c.Rank()), 1})
			if len(got) != size {
				t.Errorf("Allgather returned %d pieces", len(got))
				return
			}
			for r := 0; r < size; r++ {
				if got[r][0] != float64(r) || got[r][1] != 1 {
					t.Errorf("size %d rank %d: Allgather[%d] = %v", size, c.Rank(), r, got[r])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunReportsPanic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	var rp *RankPanicError
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
	var ok bool
	rp, ok = err.(*RankPanicError)
	if !ok || rp.Rank != 1 {
		t.Fatalf("err = %v, want RankPanicError rank 1", err)
	}
}

// TestRunPanicClosesWorld: a rank that panics before its send must not
// leave its peer blocked in Recv for ever. Run closes the world on the
// first panic, so it returns that rank's *RankPanicError within a
// second — in-process, and over a loopback TCP world of goroutine
// ranks, where the peer's endpoint fails once the dead rank's sockets
// close.
func TestRunPanicClosesWorld(t *testing.T) {
	f := func(c *Comm) {
		if c.Rank() == 0 {
			panic("dies before its send")
		}
		c.Recv(0, 5)
	}
	// within runs each world's Run concurrently and returns their
	// errors, failing the test if any is still running after a second.
	within := func(t *testing.T, worlds ...*World) []error {
		t.Helper()
		errs := make([]error, len(worlds))
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i, w := range worlds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = w.Run(f)
			}()
		}
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("Run still blocked 1 s after rank 0 panicked")
		}
		return errs
	}
	wantRank0 := func(t *testing.T, err error) {
		t.Helper()
		var rp *RankPanicError
		if !errors.As(err, &rp) || rp.Rank != 0 {
			t.Fatalf("err = %v, want rank 0's *RankPanicError", err)
		}
	}

	t.Run("mem", func(t *testing.T) {
		wantRank0(t, within(t, NewWorld(2))[0])
	})
	t.Run("tcp", func(t *testing.T) {
		errs := within(t, dialTestWorlds(t, 2)...)
		wantRank0(t, errs[0])
		if errs[1] == nil {
			t.Fatal("rank 1 received from a dead peer")
		}
	})
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2, WithNetModel(&NetModel{LatencySeconds: 1e-6, BytesPerSecond: 1e9}))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.stats
	if st[0].MessagesSent != 1 || st[0].BytesSent != 800 {
		t.Fatalf("rank0 stats = %+v", st[0])
	}
	if st[1].MessagesRecv != 1 || st[1].BytesRecv != 800 {
		t.Fatalf("rank1 stats = %+v", st[1])
	}
	wantCost := 1e-6 + 800.0/1e9
	if math.Abs(st[0].VirtualCommSeconds-wantCost) > 1e-12 {
		t.Fatalf("virtual comm = %g, want %g", st[0].VirtualCommSeconds, wantCost)
	}
	tot := w.TotalStats()
	if tot.MessagesSent != 1 || tot.MessagesRecv != 1 {
		t.Fatalf("TotalStats = %+v", tot)
	}
}

func TestNetModelCost(t *testing.T) {
	m := &NetModel{LatencySeconds: 2e-6, BytesPerSecond: 1e9}
	if got := m.Cost(1000); math.Abs(got-(2e-6+1e-6)) > 1e-15 {
		t.Fatalf("Cost = %g", got)
	}
	if ClusterEthernet().Cost(0) <= 0 || ClusterInfiniband().Cost(0) <= 0 {
		t.Fatalf("preset models must have positive latency")
	}
}

func TestSendValidation(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) {
		defer func() { recover() }()
		c.Send(5, 0, nil)
		t.Errorf("Send to invalid rank must panic")
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) {
		defer func() { recover() }()
		c.Send(0, -3, nil)
		t.Errorf("Send with negative tag must panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) must panic")
		}
	}()
	NewWorld(0)
}
