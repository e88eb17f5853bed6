package core

import (
	"context"
	"errors"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
	"repro/internal/tensor"
)

// faultySession opens a session on eng whose in-process world sends
// through the chaos fixture's rules. It swaps the session's own world
// for the faulty one, so the engine stays fault-free for later
// sessions.
func faultySession(t *testing.T, ctx context.Context, eng *Engine, initials []*tensor.Tensor, rules ...mpitest.Rule) *Session {
	t.Helper()
	ses, err := eng.NewSession(ctx, initials...)
	if err != nil {
		t.Fatal(err)
	}
	ses.world.Close()
	ses.world = mpi.NewWorldOn(mpitest.Wrap(mpi.NewMemTransport(eng.ens.Partition.Ranks()), rules...))
	return ses
}

// TestSessionChaosDelayBitIdentical is the engine half of the chaos
// contract (DESIGN.md §11): a rollout under order-preserving faults
// (delay + jitter on every link) must reproduce the fault-free frames
// bit for bit — slower, never different — in-process and over a
// loopback TCP world of goroutine ranks.
func TestSessionChaosDelayBitIdentical(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	const steps = 3
	want, _ := memRollout(t, e, initials, steps)

	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rules := []mpitest.Rule{
		{From: -1, To: -1, Delay: 200 * time.Microsecond},
		{From: -1, To: -1, Jitter: 500 * time.Microsecond},
	}
	ses := faultySession(t, ctx, eng, initials, rules...)
	defer ses.Close()
	var got []*tensor.Tensor
	if err := ses.Run(ctx, steps, func(_ int, f *tensor.Tensor) error {
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "rollout under delay/jitter", got, want)

	got, _ = worldsRollout(t, e, dialWorlds(t, e.Partition.Ranks(), rules...), initials, steps)
	assertFramesEqual(t, "tcp rollout under delay/jitter", got, want)
}

// stepDeadline bounds every step of the fail-stop tests: 100 ms plus
// one forward is what a blocked step may take.
const stepDeadline = 100 * time.Millisecond

// failStop is one session's outcome of a step under a fault.
type failStop struct {
	ses  *Session
	err  error
	took time.Duration
}

// attributed matches an error that names a rank and the (from, tag) of
// the receive — or the destination and tag of the send — it failed in.
var attributed = regexp.MustCompile(`rank \d+ (recv \(from \d+, tag \d+\)|send to \d+ \(tag \d+\))`)

// stepUnderFault runs one 2×2 neighbor-pad step whose context has a
// stepDeadline deadline, with every sender applying rules, and returns
// the outcome of each session that failed, by rank. On "mem" one
// in-process session steps all four ranks; on "tcp" four sessions, one
// per loopback TCP endpoint of a world of goroutine ranks, step
// together. The sessions and worlds are closed when the test ends, and
// the test then fails if a goroutine they started is still alive.
func stepUnderFault(t *testing.T, transport string, rules ...mpitest.Rule) map[int]failStop {
	t.Helper()
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	initials := []*tensor.Tensor{ds.Snapshots[0]}
	reqCtx := ContextWithRequestID(context.Background(), "deadline-req")
	base := runtime.NumGoroutine()

	var sessions []*Session
	var worlds []*mpi.World
	switch transport {
	case "mem":
		eng, err := NewEngine(e)
		if err != nil {
			t.Fatal(err)
		}
		sessions = []*Session{faultySession(t, reqCtx, eng, initials, rules...)}
	case "tcp":
		worlds = dialWorlds(t, e.Partition.Ranks(), rules...)
		for _, w := range worlds {
			eng, err := NewEngine(e, WithWorld(w))
			if err != nil {
				t.Fatal(err)
			}
			ses, err := eng.NewSession(reqCtx, initials...)
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, ses)
		}
	}
	t.Cleanup(func() {
		for _, s := range sessions {
			s.Close()
		}
		for _, w := range worlds {
			w.Close()
		}
		waitGoroutines(t, base)
	})

	ctx, cancel := context.WithTimeout(reqCtx, stepDeadline)
	defer cancel()
	outcomes := make([]failStop, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			frame, err := s.Step(ctx)
			outcomes[i] = failStop{ses: s, err: err, took: time.Since(start)}
			if err != nil && frame != nil {
				t.Errorf("session %d: a failed step returned a frame", i)
			}
		}()
	}
	wg.Wait()
	failed := make(map[int]failStop)
	for r, o := range outcomes {
		if o.err != nil {
			failed[r] = o
		}
	}
	if len(failed) == 0 {
		t.Fatal("every step succeeded under the fault")
	}
	return failed
}

// assertFailStop checks one failed step: it ended within 2 s (100 ms
// plus one forward, with room for -race), its error names the request,
// a rank and what that rank was blocked on, and the session refuses
// every later step.
func assertFailStop(t *testing.T, rank int, o failStop) {
	t.Helper()
	if o.took > 2*time.Second {
		t.Errorf("rank %d: failed step took %v", rank, o.took)
	}
	msg := o.err.Error()
	if !strings.HasPrefix(msg, "request=deadline-req: ") || !attributed.MatchString(msg) {
		t.Errorf("rank %d: error does not name the request, a rank and its (from, tag): %v", rank, msg)
	}
	if errors.Is(o.err, ErrSessionBroken) {
		t.Errorf("rank %d: the failing step reported the sentinel, not its cause: %v", rank, o.err)
	}
	for range 2 {
		if frame, err := o.ses.Step(context.Background()); frame != nil || !errors.Is(err, ErrSessionBroken) {
			t.Errorf("rank %d: Step after the failed one: frame %v, err %v", rank, frame, err)
		}
	}
}

// TestSessionChaosPartitionFailStop: a cut link 1→0 starves rank 0 —
// a peer that never sends. The step's context deadline closes the
// world, so Step returns within 100 ms plus one forward with an error
// that wraps context.DeadlineExceeded and names the request, the
// blocked rank and the (from, tag) it waited on — in-process and over
// loopback TCP — and never a hang or a frame.
func TestSessionChaosPartitionFailStop(t *testing.T) {
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			failed := stepUnderFault(t, transport, mpitest.Rule{From: 1, To: 0, Partition: true})
			if _, ok := failed[0]; !ok {
				t.Fatal("rank 0's step succeeded across the cut link")
			}
			for r, o := range failed {
				if !errors.Is(o.err, context.DeadlineExceeded) {
					t.Errorf("rank %d: error does not wrap the deadline: %v", r, o.err)
				}
				assertFailStop(t, r, o)
			}
		})
	}
}

// TestSessionChaosCrashFailStop: rank 0 dies before its first halo
// send. In-process, World.Run closes the world on that panic, so the
// step returns rank 0's *mpi.RankPanicError at once, before the
// deadline, and the deadline plays no part. Over loopback TCP rank 0's
// own step does the same; each peer's step ends either when its
// endpoint fails on the dead rank's sockets or at its deadline, and a
// step that outlived the deadline says so.
func TestSessionChaosCrashFailStop(t *testing.T) {
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			failed := stepUnderFault(t, transport, mpitest.Rule{From: 0, To: -1, Crash: true})
			o, ok := failed[0]
			if !ok {
				t.Fatal("the session hosting rank 0 did not fail")
			}
			var rp *mpi.RankPanicError
			if !errors.As(o.err, &rp) || rp.Rank != 0 || !regexp.MustCompile(`send to \d+ \(tag \d+\): mpitest: crash`).MatchString(o.err.Error()) {
				t.Errorf("rank 0's error is not its own crash: %v", o.err)
			}
			if transport == "tcp" && len(failed) != 4 {
				t.Errorf("%d of 4 ranks failed; every peer depends on rank 0", len(failed))
			}
			for r, o := range failed {
				if o.took >= stepDeadline && !errors.Is(o.err, context.DeadlineExceeded) {
					t.Errorf("rank %d: step outlived its deadline without saying so: %v", r, o.err)
				}
				assertFailStop(t, r, o)
			}
		})
	}
}

// waitGoroutines polls until the goroutine count is back to at most
// base, failing the test with every stack otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines alive, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelOnRecv cancels its context when rank 0 takes the n-th message
// off the transport, then holds that receive until the cancel has
// closed the transport: the message is already delivered, so every
// rank finishes the step, and the cancel lands after the work is done
// but before Step has looked.
type cancelOnRecv struct {
	mpi.Transport
	n      int
	cancel context.CancelFunc

	mu     sync.Mutex
	seen   int
	closed chan struct{}
	once   sync.Once
}

func (t *cancelOnRecv) Recv(rank int) (mpi.Message, error) {
	m, err := t.Transport.Recv(rank)
	if rank == 0 {
		t.mu.Lock()
		t.seen++
		last := t.seen == t.n
		t.mu.Unlock()
		if last {
			t.cancel()
			select {
			case <-t.closed:
			case <-time.After(5 * time.Second): // the step then fails its assertions
			}
		}
	}
	return m, err
}

func (t *cancelOnRecv) Close() error {
	t.once.Do(func() { close(t.closed) })
	return t.Transport.Close()
}

// TestStepLateCancelBreaksSession: a cancel that lands after every
// rank has finished the step, but before Step stops watching the
// context, has still closed the world, so the step fails with the
// context's error and the session is broken. A 2×1 world makes the
// moment exact: per step rank 0 receives rank 1's halo strip and then
// its gather piece, the last message of the step.
func TestStepLateCancelBreaksSession(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 1)
	eng, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ses, err := eng.NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	ses.world.Close()
	ses.world = mpi.NewWorldOn(&cancelOnRecv{Transport: mpi.NewMemTransport(2), n: 2, cancel: cancel, closed: make(chan struct{})})
	frame, err := ses.Step(ctx)
	if frame != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("step cancelled after its work: frame %v, err %v", frame, err)
	}
	if _, err := ses.Step(context.Background()); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("Step after the cancelled one: %v", err)
	}
}
