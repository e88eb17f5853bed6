package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the fault-injecting chaos transport (DESIGN.md §11): a
// Transport wrapper that perturbs traffic according to a seeded,
// deterministic ChaosPlan so that the runtime's fail-stop and
// bit-reproducibility claims can be exercised on dirty paths, not just
// clean ones.
//
// Two fault families, two required outcomes:
//
//   - Order-preserving faults (delay, jitter) slow messages down but
//     never violate the per-(sender, receiver) FIFO contract the Comm
//     matching layer is built on. Rollout frames must stay
//     bit-identical to a fault-free run.
//   - Lossy faults (drop, duplicate, partition) corrupt the message
//     stream. They must surface as a clean, attributed error — naming
//     the link (and, via the mpi panic wrapping, the rank) — within
//     the plan's receive deadline. Never a hang, never a silently
//     wrong frame.
//
// Detection works by framing: the chaos sender prepends a two-value
// header [chaosMagic, seq] to every payload, with seq counting
// messages per directed link. The chaos receiver strips the header and
// verifies the sequence is gapless and strictly increasing — a gap
// means a dropped message, a repeat means a duplicate, and both name
// the exact link. A link that goes silent entirely (full partition, or
// a drop swallowing the final message) is caught by the receive
// deadline, whose error reports the per-link arrival state so the
// stalled link can be identified.
//
// Determinism: every directed link owns an rng seeded from
// (plan.Seed, from, to), and each probabilistic rule consumes exactly
// one draw per message whether or not it fires. The fault schedule is
// therefore a pure function of (seed, link, sequence number) —
// independent of goroutine interleaving, wall-clock time, and
// transport choice — so a run either reproduces its frames or
// reproduces its failure.

// FaultKind enumerates the chaos fault types.
type FaultKind int

const (
	// FaultDelay holds every selected message for Delay before it is
	// handed to the inner transport. Per-link FIFO order is preserved
	// (the hold happens in Send, before the message is enqueued), so
	// results are bit-identical to a fault-free run.
	FaultDelay FaultKind = iota
	// FaultJitter is FaultDelay with a per-message random hold in
	// [0, Delay], drawn from the link's seeded rng. It perturbs the
	// interleaving ACROSS links — exercising the matching layer's
	// pending queues and wildcard paths — while per-link order still
	// holds (the "reorder within non-overtaking limits" fault).
	FaultJitter
	// FaultDrop silently discards selected messages. The receiver
	// detects the sequence gap on the link's next arrival (or hits the
	// receive deadline if nothing follows) and fails stop.
	FaultDrop
	// FaultDuplicate delivers selected messages twice. The receiver
	// detects the repeated sequence number and fails stop — a
	// duplicated halo strip must never be matched by a later receive.
	FaultDuplicate
	// FaultPartition cuts the link completely from message After+1 on
	// (After=0 cuts it from the first message). Receivers starve and
	// hit the receive deadline.
	FaultPartition
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultJitter:
		return "jitter"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "dup"
	case FaultPartition:
		return "partition"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// ChaosRule applies one fault to the directed links it matches.
type ChaosRule struct {
	// From and To select the directed link; -1 matches any rank.
	From, To int
	// Kind is the fault to inject.
	Kind FaultKind
	// Prob is the per-message probability for the probabilistic kinds
	// (delay, jitter, drop, dup); values <= 0 or >= 1 mean "every
	// message". Ignored by partition.
	Prob float64
	// Delay is the hold time for FaultDelay (exact) and FaultJitter
	// (upper bound).
	Delay time.Duration
	// After arms the rule only from message After+1 on the link
	// (messages are counted per directed link, starting at 1). For
	// FaultPartition it is the cut point.
	After int
}

func (r ChaosRule) matches(from, to int) bool {
	return (r.From < 0 || r.From == from) && (r.To < 0 || r.To == to)
}

// probabilistic reports whether the rule consumes an rng draw per
// message (which it must do unconditionally, to keep the schedule a
// function of the sequence number alone).
func (r ChaosRule) probabilistic() bool {
	return r.Kind != FaultPartition
}

// ChaosPlan is a complete, reproducible fault schedule.
type ChaosPlan struct {
	// Seed makes the schedule deterministic: same seed, same faults on
	// the same message sequence numbers.
	Seed int64
	// RecvTimeout bounds how long any single receive may block before
	// the transport fails stop (the no-hang guarantee under partition
	// and trailing drops). 0 means 5 seconds.
	RecvTimeout time.Duration
	// Rules are applied in order to every message whose link they
	// match.
	Rules []ChaosRule
}

// defaultChaosRecvTimeout bounds a blocked receive when the plan does
// not say otherwise.
const defaultChaosRecvTimeout = 5 * time.Second

// ParseChaosRules parses the compact CLI fault specification: a
// comma-separated list of rules
//
//	kind:from>to[:p=0.5][:d=2ms][:after=10]
//
// where kind is delay|jitter|drop|dup|partition and from/to are rank
// numbers or * for any. Examples:
//
//	delay:*>*:d=2ms:p=0.5      delay half of all messages by 2ms
//	jitter:0>1:d=5ms           hold each 0→1 message for rand[0,5ms]
//	drop:1>0:p=0.3:after=8     drop 30% of 1→0 messages after the 8th
//	partition:2>3              cut the 2→3 link entirely
func ParseChaosRules(spec string) ([]ChaosRule, error) {
	var rules []ChaosRule
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.Split(raw, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("mpi: chaos rule %q: want kind:from>to[:opts]", raw)
		}
		var r ChaosRule
		switch parts[0] {
		case "delay":
			r.Kind = FaultDelay
		case "jitter":
			r.Kind = FaultJitter
		case "drop":
			r.Kind = FaultDrop
		case "dup":
			r.Kind = FaultDuplicate
		case "partition":
			r.Kind = FaultPartition
		default:
			return nil, fmt.Errorf("mpi: chaos rule %q: unknown kind %q (want delay|jitter|drop|dup|partition)", raw, parts[0])
		}
		link := strings.Split(parts[1], ">")
		if len(link) != 2 {
			return nil, fmt.Errorf("mpi: chaos rule %q: link %q must be from>to (ranks or *)", raw, parts[1])
		}
		var err error
		if r.From, err = parseChaosRank(link[0]); err != nil {
			return nil, fmt.Errorf("mpi: chaos rule %q: %w", raw, err)
		}
		if r.To, err = parseChaosRank(link[1]); err != nil {
			return nil, fmt.Errorf("mpi: chaos rule %q: %w", raw, err)
		}
		for _, opt := range parts[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("mpi: chaos rule %q: option %q must be k=v", raw, opt)
			}
			switch k {
			case "p":
				if r.Prob, err = strconv.ParseFloat(v, 64); err != nil {
					return nil, fmt.Errorf("mpi: chaos rule %q: bad probability %q", raw, v)
				}
			case "d":
				if r.Delay, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("mpi: chaos rule %q: bad delay %q", raw, v)
				}
			case "after":
				if r.After, err = strconv.Atoi(v); err != nil || r.After < 0 {
					return nil, fmt.Errorf("mpi: chaos rule %q: bad after %q", raw, v)
				}
			default:
				return nil, fmt.Errorf("mpi: chaos rule %q: unknown option %q (want p|d|after)", raw, opt)
			}
		}
		if (r.Kind == FaultDelay || r.Kind == FaultJitter) && r.Delay <= 0 {
			return nil, fmt.Errorf("mpi: chaos rule %q: %s needs d=<duration>", raw, r.Kind)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseChaosRank(s string) (int, error) {
	if s == "*" {
		return -1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad rank %q (want a rank number or *)", s)
	}
	return n, nil
}

// WithChaos wraps the world's transport in the fault-injecting chaos
// layer. It composes with both NewWorld (in-process) and DialTCP
// (every process of the job must be given the SAME plan, or sequence
// verification will flag the asymmetry as corruption).
func WithChaos(plan ChaosPlan) Option {
	return func(w *World) { w.chaos = &plan }
}

// chaosMagic marks a chaos-framed payload. The bit pattern spells
// "chaosv1\0" — an arbitrary but distinctive float64 a real payload
// would only hit by forging it.
var chaosMagic = chaosFloatFromBytes("chaosv1\x00")

func chaosFloatFromBytes(s string) float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(s[i])
	}
	// All payload values travel as raw float64 bit patterns on every
	// transport, so any constant round-trips exactly.
	return math.Float64frombits(bits)
}

// chaosHeaderLen is the per-message framing overhead in values.
const chaosHeaderLen = 2

// chaosRecvPoll is the receive-deadline polling interval.
const chaosRecvPoll = 200 * time.Microsecond

// chaosLink is the per-directed-link fault and verification state.
type chaosLink struct {
	mu       sync.Mutex
	rng      *rand.Rand
	sent     int // messages offered to Send on this link
	recvSeq  int // highest sequence number delivered on this link
	lastRecv time.Time
	dropped  int // messages discarded by drop/partition rules
	lastDrop int // sequence number of the most recent discard
}

// chaosTransport implements Transport over an inner transport.
type chaosTransport struct {
	inner Transport
	plan  ChaosPlan

	mu    sync.Mutex
	links map[[2]int]*chaosLink
}

// newChaosTransport wraps a transport with the plan's fault schedule.
func newChaosTransport(inner Transport, plan ChaosPlan) *chaosTransport {
	if plan.RecvTimeout <= 0 {
		plan.RecvTimeout = defaultChaosRecvTimeout
	}
	return &chaosTransport{
		inner: inner,
		plan:  plan,
		links: make(map[[2]int]*chaosLink),
	}
}

// link returns (creating on first use) the state of a directed link.
func (t *chaosTransport) link(from, to int) *chaosLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]int{from, to}
	l := t.links[key]
	if l == nil {
		// Per-link seed: a fixed mix of the plan seed and the link
		// endpoints, identical in every process of a distributed job.
		seed := t.plan.Seed ^ int64(from+1)*0x1E3779B97F4A7C15 ^ int64(to+1)*0x42B2AE3D27D4EB4F
		l = &chaosLink{rng: rand.New(rand.NewSource(seed))}
		t.links[key] = l
	}
	return l
}

// Size implements Transport.
func (t *chaosTransport) Size() int { return t.inner.Size() }

// Local implements Transport.
func (t *chaosTransport) Local() []int { return t.inner.Local() }

// Send implements Transport: decide this message's faults from the
// link's seeded schedule, then frame and forward (zero, one or two
// copies, optionally after a hold).
func (t *chaosTransport) Send(from, to, tag int, data []float64) error {
	l := t.link(from, to)
	l.mu.Lock()
	l.sent++
	seq := l.sent
	var hold time.Duration
	drop, dup := false, false
	for _, r := range t.plan.Rules {
		if !r.matches(from, to) {
			continue
		}
		// Consume the draw BEFORE the After gate so the schedule for
		// message N never depends on when rules arm.
		var draw float64
		if r.probabilistic() {
			draw = l.rng.Float64()
		}
		if seq <= r.After {
			continue
		}
		fires := r.Prob <= 0 || r.Prob >= 1 || draw < r.Prob
		switch r.Kind {
		case FaultPartition:
			drop = true
		case FaultDrop:
			drop = drop || fires
		case FaultDuplicate:
			dup = dup || fires
		case FaultDelay:
			if fires {
				hold += r.Delay
			}
		case FaultJitter:
			// A second draw scales the hold; also unconditional.
			f := l.rng.Float64()
			if fires {
				hold += time.Duration(f * float64(r.Delay))
			}
		}
	}
	if drop {
		l.dropped++
		l.lastDrop = seq
	}
	l.mu.Unlock()

	if drop {
		return nil // the receiver finds the gap, or the deadline does
	}
	if hold > 0 {
		// Holding inside Send keeps per-link FIFO intact by
		// construction: the next message on this link cannot be
		// submitted until this one is in the inner transport.
		time.Sleep(hold)
	}
	framed := make([]float64, chaosHeaderLen+len(data))
	framed[0] = chaosMagic
	framed[1] = float64(seq)
	copy(framed[chaosHeaderLen:], data)
	if err := t.inner.Send(from, to, tag, framed); err != nil {
		return err
	}
	if dup {
		second := append([]float64(nil), framed...)
		return t.inner.Send(from, to, tag, second)
	}
	return nil
}

// verify strips the chaos framing from a received message and checks
// the link's sequence continuity, converting loss and duplication into
// attributed fail-stop errors.
func (t *chaosTransport) verify(rank int, m Message) (Message, error) {
	if len(m.Data) < chaosHeaderLen || m.Data[0] != chaosMagic {
		return Message{}, fmt.Errorf("mpi: chaos: rank %d: unframed message on link %d->%d (peer not running the same chaos plan?)", rank, m.From, rank)
	}
	seq := int(m.Data[1])
	l := t.link(m.From, rank)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case seq <= l.recvSeq:
		return Message{}, fmt.Errorf("mpi: chaos: rank %d: duplicate message on link %d->%d (seq %d already delivered)", rank, m.From, rank, seq)
	case seq != l.recvSeq+1:
		return Message{}, fmt.Errorf("mpi: chaos: rank %d: lost message on link %d->%d (got seq %d after %d: %d message(s) dropped)", rank, m.From, rank, seq, l.recvSeq, seq-l.recvSeq-1)
	}
	l.recvSeq = seq
	//repolint:allow detpath -- arrival timestamp feeds the starvation report, never a frame
	l.lastRecv = time.Now()
	m.Data = m.Data[chaosHeaderLen:]
	return m, nil
}

// starvationReport names the links most likely responsible for a
// receive deadline: every possible inbound link — including peers
// never heard from at all, which in a distributed job means a
// receiver-side link record was never even created — most suspicious
// first. (A fully cut link delivers nothing, so it MUST be reported
// from the peer enumeration, not from the observed-traffic map.)
func (t *chaosTransport) starvationReport(rank int) string {
	type linkState struct {
		from, seq int
		idle      time.Duration
		never     bool
	}
	var states []linkState
	t.mu.Lock()
	for from := 0; from < t.inner.Size(); from++ {
		if from == rank {
			continue
		}
		st := linkState{from: from, never: true}
		if l, ok := t.links[[2]int{from, rank}]; ok {
			l.mu.Lock()
			st.seq = l.recvSeq
			if !l.lastRecv.IsZero() {
				//repolint:allow detpath -- idle age is diagnostic text in a failure report
				st.idle = time.Since(l.lastRecv)
				st.never = false
			}
			l.mu.Unlock()
		}
		states = append(states, st)
	}
	t.mu.Unlock()
	if len(states) == 0 {
		return "no inbound links (world of one)"
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].never != states[j].never {
			return states[i].never
		}
		return states[i].idle > states[j].idle
	})
	parts := make([]string, len(states))
	for i, st := range states {
		if st.never {
			parts[i] = fmt.Sprintf("link %d->%d never delivered a message", st.from, rank)
		} else {
			parts[i] = fmt.Sprintf("link %d->%d silent for %v after seq %d", st.from, rank, st.idle.Round(time.Millisecond), st.seq)
		}
	}
	return strings.Join(parts, "; ")
}

// Recv implements Transport: a polling receive with the plan's
// deadline, so a starved rank reports an attributed error instead of
// hanging forever (the no-hang half of the fail-stop contract).
func (t *chaosTransport) Recv(rank int) (Message, error) {
	//repolint:allow detpath -- receive deadline: the no-hang guarantee needs the wall clock
	deadline := time.Now().Add(t.plan.RecvTimeout)
	for {
		m, ok, err := t.inner.TryRecv(rank)
		if err != nil {
			return Message{}, err
		}
		if ok {
			return t.verify(rank, m)
		}
		//repolint:allow detpath -- receive deadline: the no-hang guarantee needs the wall clock
		if time.Now().After(deadline) {
			return Message{}, fmt.Errorf("mpi: chaos: rank %d: receive deadline (%v) exceeded — %s", rank, t.plan.RecvTimeout, t.starvationReport(rank))
		}
		time.Sleep(chaosRecvPoll)
	}
}

// TryRecv implements Transport.
func (t *chaosTransport) TryRecv(rank int) (Message, bool, error) {
	m, ok, err := t.inner.TryRecv(rank)
	if err != nil || !ok {
		return Message{}, false, err
	}
	m, err = t.verify(rank, m)
	if err != nil {
		return Message{}, false, err
	}
	return m, true, nil
}

// Close implements Transport.
func (t *chaosTransport) Close() error { return t.inner.Close() }
