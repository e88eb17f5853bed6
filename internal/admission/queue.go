package admission

import (
	"context"
	"time"
)

// Stage 3: priority classes with deadline-aware queueing. A bounded
// per-class queue sits ahead of the engine; when the concurrency
// budget is exhausted and a queue overflows, the LOWEST class sheds
// first — a high-class arrival displaces the newest waiter of the
// lowest occupied class below it rather than being turned away. Every
// shed is typed (503 "overloaded") and its time-in-queue lands in the
// shed histogram, so deliberate degradation is measurable.

// admitOutcome says how one pass through the scheduler ended.
type admitOutcome int

const (
	// admitGranted: the request holds a concurrency slot; the caller
	// must release it.
	admitGranted admitOutcome = iota
	// admitShed: the budget was exceeded and this request lost —
	// rejected on arrival, displaced by a higher class, or expired in
	// the queue.
	admitShed
)

// waiter is one queued request. ch is buffered so a grant or shed
// never blocks the scheduler on a waiter that is concurrently timing
// out; the done flag arbitrates that race under the scheduler lock.
type waiter struct {
	ch    chan admitOutcome
	class int
	enq   time.Time
	done  bool
}

// scheduler is the concurrency budget + priority queues. All state is
// guarded by the Gate's mutex discipline: methods lock g.schedMu via
// the Gate, so the struct itself stays plain.
type scheduler struct {
	running int
	queues  [][]*waiter // index = priority (0 highest); grown on demand
}

// queueFor returns the queue slice index for class, growing the table
// (a reload may add classes).
func (s *scheduler) queueFor(class int) int {
	for len(s.queues) <= class {
		s.queues = append(s.queues, nil)
	}
	return class
}

// tryAdmit is the locked fast path: grab a slot, enqueue, or decide a
// shed. It returns (nil, admitGranted) on an immediate grant, (w,
// admitGranted) when the request must wait on w.ch, and (nil,
// admitShed) when the request is refused on arrival. shedded receives
// any displaced waiter so the caller can record its shed outside the
// lock.
func (s *scheduler) tryAdmit(class, queueCap, maxConcurrent int, now time.Time) (w *waiter, displaced *waiter, shed bool) {
	if s.running < maxConcurrent {
		s.running++
		return nil, nil, false
	}
	qi := s.queueFor(class)
	if len(s.queues[qi]) >= queueCap {
		// This class's queue is full: displace the newest waiter of
		// the lowest occupied class BELOW this one; if none exists,
		// the arrival itself is the lowest traffic present — shed it.
		for low := len(s.queues) - 1; low > class; low-- {
			q := s.queues[low]
			if n := len(q); n > 0 {
				displaced = q[n-1]
				displaced.done = true
				s.queues[low] = q[:n-1]
				break
			}
		}
		if displaced == nil {
			return nil, nil, true
		}
	}
	w = &waiter{ch: make(chan admitOutcome, 1), class: class, enq: now}
	s.queues[qi] = append(s.queues[qi], w)
	return w, displaced, false
}

// releaseLocked frees one slot and promotes the oldest waiter of the
// highest occupied class. It returns the promoted waiter (already
// granted) so the caller can signal it outside the lock. max is the
// CURRENT policy's concurrency budget: after a reload shrank it,
// releases drain the excess before waiters are promoted again.
func (s *scheduler) releaseLocked(max int) *waiter {
	s.running--
	if max > 0 && s.running >= max {
		return nil
	}
	for class := 0; class < len(s.queues); class++ {
		q := s.queues[class]
		if len(q) == 0 {
			continue
		}
		w := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		s.queues[class] = q[:len(q)-1]
		w.done = true
		s.running++
		return w
	}
	return nil
}

// expireLocked removes w from its queue after a deadline/cancel; it
// reports false when w was already granted or displaced (the caller
// must then honor that outcome instead).
func (s *scheduler) expireLocked(w *waiter) bool {
	if w.done {
		return false
	}
	w.done = true
	qi := w.class
	q := s.queues[qi]
	for i, qw := range q {
		if qw == w {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			s.queues[qi] = q[:len(q)-1]
			return true
		}
	}
	return true // unreachable: an undone waiter is always queued
}

// queuedLocked counts waiting requests across all classes.
func (s *scheduler) queuedLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// admit runs stage 3 for one request: immediate grant, queue + wait,
// or shed. wait caps the queue time (the policy's max_queue_wait);
// the request context's own deadline/cancel also ends the wait. On
// admitGranted the caller MUST call g.release when the request
// finishes.
func (g *Gate) admit(ctx context.Context, class, queueCap, maxConcurrent int) (admitOutcome, time.Duration) {
	now := g.now()
	g.schedMu.Lock()
	w, displaced, shed := g.sched.tryAdmit(class, queueCap, maxConcurrent, now)
	g.schedMu.Unlock()
	if displaced != nil {
		g.recordShed(displaced.class, now.Sub(displaced.enq))
		displaced.ch <- admitShed
	}
	if shed {
		g.recordShed(class, 0) // refused on arrival: zero queue time
		return admitShed, 0
	}
	if w == nil {
		return admitGranted, 0
	}

	timer := time.NewTimer(g.queueWaitBudget(ctx))
	defer timer.Stop()
	select {
	case out := <-w.ch:
		return out, g.now().Sub(w.enq)
	case <-ctx.Done():
	case <-timer.C:
	}
	// Deadline or cancel while queued: remove ourselves — unless a
	// grant or displacement raced in, in which case that outcome
	// stands (a granted slot must be used-and-released, never leaked).
	g.schedMu.Lock()
	expired := g.sched.expireLocked(w)
	g.schedMu.Unlock()
	if !expired {
		out := <-w.ch // buffered: already delivered
		return out, g.now().Sub(w.enq)
	}
	waited := g.now().Sub(w.enq)
	g.recordShed(w.class, waited)
	return admitShed, waited
}

// queueWaitFloor keeps a zero-config queue wait sane.
const queueWaitFloor = 10 * time.Millisecond

// queueWaitBudget resolves how long this request may queue: the
// policy's max_queue_wait, shrunk to the request's own remaining
// deadline when that is sooner.
func (g *Gate) queueWaitBudget(ctx context.Context) time.Duration {
	budget := g.table().maxQueueWait
	if budget < queueWaitFloor {
		budget = queueWaitFloor
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := dl.Sub(g.now()); remain < budget {
			budget = remain
		}
	}
	return budget
}

// release frees the request's concurrency slot and hands it to the
// highest-priority waiter, if any.
func (g *Gate) release() {
	max := g.table().maxConcurrent
	g.schedMu.Lock()
	w := g.sched.releaseLocked(max)
	g.schedMu.Unlock()
	if w != nil {
		w.ch <- admitGranted
	}
}

// recordShed counts one shed against class and observes the time the
// request spent queued (zero for shed-on-arrival) in the shed
// histogram.
func (g *Gate) recordShed(class int, wait time.Duration) {
	g.shedWait.Observe(wait)
	g.classStatsFor(class).shed.Add(1)
}
