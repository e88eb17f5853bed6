package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosWorld builds a small in-process world under the given plan.
func chaosWorld(size int, plan ChaosPlan) *World {
	return NewWorld(size, WithChaos(plan))
}

// runRing performs `rounds` of neighbour exchange on a ring and
// returns rank 0's received values, or the first rank panic.
func runRing(w *World, rounds int) (got []float64, err error) {
	var mu sync.Mutex
	err = w.Run(func(c *Comm) {
		r, n := c.Rank(), c.Size()
		for k := 0; k < rounds; k++ {
			c.Send((r+1)%n, 7, []float64{float64(r*1000 + k)})
			v := c.Recv((r+n-1)%n, 7)
			if r == 0 {
				mu.Lock()
				got = append(got, v...)
				mu.Unlock()
			}
		}
	})
	return got, err
}

// TestChaosPassThrough asserts an empty plan changes nothing: framing
// goes on and comes off, values and stats are untouched.
func TestChaosPassThrough(t *testing.T) {
	w := chaosWorld(4, ChaosPlan{Seed: 1})
	got, err := runRing(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if want := float64(3*1000 + k); v != want {
			t.Fatalf("round %d: got %v, want %v", k, v, want)
		}
	}
	// Stats must count user payloads, not chaos frames.
	if s := w.stats[0]; s.BytesRecv != 5*8 {
		t.Fatalf("rank 0 recv bytes %d, want %d (chaos framing leaked into stats?)", s.BytesRecv, 5*8)
	}
}

// TestChaosDelayPreservesOrderAndValues asserts the order-preserving
// faults deliver every message, in order, bit for bit.
func TestChaosDelayPreservesOrderAndValues(t *testing.T) {
	plan := ChaosPlan{Seed: 42, Rules: []ChaosRule{
		{From: -1, To: -1, Kind: FaultDelay, Prob: 0.5, Delay: time.Millisecond},
		{From: -1, To: 0, Kind: FaultJitter, Delay: 2 * time.Millisecond},
	}}
	w := chaosWorld(3, plan)
	got, err := runRing(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("rank 0 received %d messages, want 8", len(got))
	}
	for k, v := range got {
		if want := float64(2*1000 + k); v != want {
			t.Fatalf("round %d: got %v, want %v (delay broke FIFO)", k, v, want)
		}
	}
}

// TestChaosDropDetectedAsGap asserts a lost message surfaces as an
// attributed fail-stop on the link's next arrival — naming the link —
// rather than a silently reordered or missing value. The loss is
// simulated white-box (advance the sender's sequence exactly as
// FaultDrop does) so precisely one known message vanishes.
func TestChaosDropDetectedAsGap(t *testing.T) {
	plan := ChaosPlan{Seed: 7, RecvTimeout: 2 * time.Second}
	w := NewWorld(2, WithChaos(plan))
	ct := w.tr.(*chaosTransport)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 3, []float64{1})
			l := ct.link(1, 0)
			l.mu.Lock()
			l.sent++ // message 2 is lost in flight
			l.mu.Unlock()
			c.Send(0, 3, []float64{3})
			return
		}
		c.Recv(1, 3)
		c.Recv(1, 3) // must fail on the gap, not deliver seq 3 as seq 2
	})
	if err == nil {
		t.Fatal("dropped message went undetected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "lost message on link 1->0") {
		t.Fatalf("error does not attribute the lossy link: %v", msg)
	}
	if !strings.Contains(msg, "rank 0") {
		t.Fatalf("error does not name the failing rank: %v", msg)
	}
}

// TestChaosTrailingDropHitsDeadline asserts a drop rule that swallows
// the tail of a link's traffic — so no later arrival can expose the
// gap — is caught by the receive deadline, with the silent link named.
func TestChaosTrailingDropHitsDeadline(t *testing.T) {
	plan := ChaosPlan{Seed: 7, RecvTimeout: 300 * time.Millisecond, Rules: []ChaosRule{
		{From: 1, To: 0, Kind: FaultDrop, After: 1, Prob: 1},
	}}
	w := NewWorld(2, WithChaos(plan))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 3, []float64{1})
			c.Send(0, 3, []float64{2}) // dropped; nothing follows
			return
		}
		c.Recv(1, 3)
		c.Recv(1, 3)
	})
	if err == nil {
		t.Fatal("trailing drop went undetected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "receive deadline") || !strings.Contains(msg, "link 1->0") {
		t.Fatalf("deadline error does not attribute the starved link: %v", msg)
	}
}

// TestChaosDuplicateDetected asserts a duplicated message fails stop
// instead of being matched by a later receive.
func TestChaosDuplicateDetected(t *testing.T) {
	plan := ChaosPlan{Seed: 7, RecvTimeout: 2 * time.Second, Rules: []ChaosRule{
		{From: 1, To: 0, Kind: FaultDuplicate},
	}}
	w := NewWorld(2, WithChaos(plan))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 3, []float64{1})
			return
		}
		c.Recv(1, 3)
		c.Recv(1, 3) // must fail on the duplicate, not deliver it
	})
	if err == nil {
		t.Fatal("duplicate message went undetected")
	}
	if !strings.Contains(err.Error(), "duplicate message on link 1->0") {
		t.Fatalf("error does not attribute the duplicate: %v", err)
	}
}

// TestChaosPartitionHitsDeadline asserts a fully cut link starves its
// receiver into a bounded, attributed failure — never a hang.
func TestChaosPartitionHitsDeadline(t *testing.T) {
	plan := ChaosPlan{Seed: 1, RecvTimeout: 300 * time.Millisecond, Rules: []ChaosRule{
		{From: 1, To: 0, Kind: FaultPartition},
	}}
	w := NewWorld(2, WithChaos(plan))
	start := time.Now()
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 3, []float64{1})
			return
		}
		c.Recv(1, 3)
	})
	if err == nil {
		t.Fatal("partitioned receive returned")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fail-stop took %v — deadline did not bound the hang", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "receive deadline") || !strings.Contains(msg, "link 1->0") {
		t.Fatalf("deadline error does not attribute the starved link: %v", msg)
	}
}

// chaosSchedule replays `n` messages through a link's Send decisions
// and records which sequence numbers were dropped or duplicated — the
// observable fault schedule.
func chaosSchedule(t *testing.T, plan ChaosPlan, n int) string {
	t.Helper()
	// Capacity must exceed n plus duplicates: nothing drains until the
	// end, and a full mailbox would block Send.
	inner := newMemTransport(2, 4*n)
	tr := newChaosTransport(inner, plan)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if err := tr.Send(1, 0, 5, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain what was actually delivered.
	for {
		m, ok, err := inner.TryRecv(0)
		if err != nil || !ok {
			break
		}
		fmt.Fprintf(&sb, "%v;", m.Data[:chaosHeaderLen])
	}
	return sb.String()
}

// TestChaosScheduleDeterministic asserts the same seed yields the
// same fault schedule — and a different seed a different one.
func TestChaosScheduleDeterministic(t *testing.T) {
	rules := []ChaosRule{
		{From: -1, To: -1, Kind: FaultDrop, Prob: 0.3},
		{From: -1, To: -1, Kind: FaultDuplicate, Prob: 0.2},
	}
	a := chaosSchedule(t, ChaosPlan{Seed: 99, Rules: rules}, 100)
	b := chaosSchedule(t, ChaosPlan{Seed: 99, Rules: rules}, 100)
	c := chaosSchedule(t, ChaosPlan{Seed: 100, Rules: rules}, 100)
	if a != b {
		t.Fatal("same seed produced different fault schedules")
	}
	if a == c {
		t.Fatal("different seeds produced identical fault schedules (rng not seeded per plan?)")
	}
}

// TestChaosOverTCP asserts the chaos layer composes with the TCP
// transport: loss on a socket link is detected and attributed just
// like in-process.
func TestChaosOverTCP(t *testing.T) {
	addrs, err := ReserveLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	plan := ChaosPlan{Seed: 5, RecvTimeout: 2 * time.Second}
	worlds := make([]*World, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = DialTCP(TCPConfig{Rank: r, Peers: addrs}, WithChaos(plan))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	defer worlds[0].Close()
	defer worlds[1].Close()

	// The sender's chaos layer stamps sequence numbers; losing one in
	// flight (white-box, as FaultDrop does) must be caught by the
	// receiver's verification on the other side of the socket.
	senderChaos := worlds[1].tr.(*chaosTransport)
	runErrs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			runErrs[r] = worlds[r].Run(func(c *Comm) {
				if c.Rank() == 1 {
					c.Send(0, 3, []float64{1})
					l := senderChaos.link(1, 0)
					l.mu.Lock()
					l.sent++ // message 2 is lost on the wire
					l.mu.Unlock()
					c.Send(0, 3, []float64{3}) // exposes the gap
					return
				}
				c.Recv(1, 3)
				c.Recv(1, 3)
			})
		}(r)
	}
	wg.Wait()
	if runErrs[0] == nil {
		t.Fatal("tcp drop went undetected")
	}
	if !strings.Contains(runErrs[0].Error(), "lost message on link 1->0") {
		t.Fatalf("tcp loss not attributed: %v", runErrs[0])
	}
}

// TestParseChaosRules exercises the CLI rule grammar.
func TestParseChaosRules(t *testing.T) {
	rules, err := ParseChaosRules("delay:*>*:d=2ms:p=0.5, drop:1>0:p=0.3:after=8,partition:2>3")
	if err != nil {
		t.Fatal(err)
	}
	want := []ChaosRule{
		{From: -1, To: -1, Kind: FaultDelay, Delay: 2 * time.Millisecond, Prob: 0.5},
		{From: 1, To: 0, Kind: FaultDrop, Prob: 0.3, After: 8},
		{From: 2, To: 3, Kind: FaultPartition},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d: got %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{"x:0>1", "delay:0>1", "drop:0-1", "drop:0>1:q=2", "drop:a>b"} {
		if _, err := ParseChaosRules(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}
