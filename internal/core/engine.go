package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Engine is the goroutine-safe serving front-end over a trained
// Ensemble. It never mutates the ensemble it wraps: every session (and
// every Predict call) runs on weight-sharing clones of the rank models
// (nn.Sequential.CloneShared) drawn from an internal pool, each with
// its own scratch arena. Any number of sessions can therefore roll out
// concurrently over one Engine — the serving property the paper's
// cheap per-subdomain inference (§III) is meant to enable.
//
// By default each session communicates over its own in-process mpi
// world. WithWorld instead binds the engine to an externally built
// world — in particular a TCP world from mpi.DialTCP, which turns a
// session into one rank of a multi-process rollout (DESIGN.md §8).
type Engine struct {
	ens       *Ensemble
	netModel  *mpi.NetModel
	precision nn.Precision
	world     *mpi.World
	worldBusy atomic.Bool  // a bound world serves one live session at a time
	local     map[int]bool // non-nil on a distributed world: ranks this process hosts
	pool      sync.Pool    // of *rankModels
}

// rankModels is one pooled set of per-rank inference clones with the
// buffers every one-step forward runs on: per hosted rank, the
// halo-extended input [1, Channels[0], h+2·halo, w+2·halo] and the
// prediction [1, C, h, w].
type rankModels struct {
	models  []*nn.Sequential
	in, out []*tensor.Tensor
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine)

// WithNetModel attaches a virtual network-cost model: every session
// message is charged latency + size/bandwidth virtual time in its
// CommStats. A nil model is ignored. On a world supplied via
// WithWorld, the world's own NetModel governs instead.
func WithNetModel(m *mpi.NetModel) EngineOption {
	return func(e *Engine) { e.netModel = m }
}

// WithPrecision selects the numeric width of this engine's compute
// path (default nn.F64, the reference path carrying every bit-identity
// guarantee). nn.F32 serves every session and Predict call through the
// float32 kernels with prepacked float32 weights (DESIGN.md §13):
// weights are narrowed once at engine construction, activations once
// per request at the input, and results widen once at the output
// boundary. Frames agree with the f64 path to the documented error
// budget (EXPERIMENTS.md), never bit-for-bit; within the f32 path,
// results remain bit-identical for any transport.
// NewEngine fails if any layer of the ensemble's models has no float32
// path.
func WithPrecision(p nn.Precision) EngineOption {
	return func(e *Engine) { e.precision = p }
}

// WithWorld binds the engine's sessions to an existing mpi world
// instead of a fresh in-process one per session. The world's size must
// equal the partition's rank count. Because a session's messages would
// interleave with another's on the same mailboxes, a bound world
// serves ONE live session at a time (NewSession fails while one is
// open); distinct engines may of course hold distinct worlds. With a
// world from mpi.DialTCP this process computes only its local rank's
// subdomain — every process of the job runs the same session calls,
// and Step returns the gathered frame only where rank 0 lives (nil
// elsewhere).
func WithWorld(w *mpi.World) EngineOption {
	return func(e *Engine) { e.world = w }
}

// NewEngine validates the ensemble and wraps it for serving. The
// ensemble must not be mutated afterwards (train elsewhere, then build
// a fresh engine).
func NewEngine(e *Ensemble, opts ...EngineOption) (*Engine, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	eng := &Engine{ens: e}
	for _, o := range opts {
		o(eng)
	}
	if eng.world != nil && eng.world.Size() != e.Partition.Ranks() {
		return nil, fmt.Errorf("core: engine world has %d ranks, partition needs %d",
			eng.world.Size(), e.Partition.Ranks())
	}
	// Probe every rank model once: this surfaces an invalid precision or
	// a layer the float32 chain cannot run as a construction error
	// instead of a serving panic, and — since clones share their
	// master's weight packs — performs the one f64→f32 weight narrowing
	// per Engine right here, off every request path.
	for r, m := range e.Models {
		if err := m.CloneShared().SetPrecision(eng.precision); err != nil {
			return nil, fmt.Errorf("core: precision %v unsupported by rank %d model: %w", eng.precision, r, err)
		}
	}
	if eng.world != nil && eng.world.Distributed() {
		// This process computes only its local rank(s): don't pay for
		// the other N-1 ranks' model clones and frames.
		eng.local = make(map[int]bool)
		for _, r := range eng.world.LocalRanks() {
			eng.local[r] = true
		}
	}
	eng.pool.New = func() any { return eng.newRankModels() }
	return eng, nil
}

// hostsRank reports whether this process computes the given rank.
func (eng *Engine) hostsRank(r int) bool { return eng.local == nil || eng.local[r] }

// newRankModels builds one fresh set of per-rank inference clones with
// the engine's knobs applied, and their input and output buffers. Each
// clone shares the trained weights but owns its caches and its arena
// (from CloneShared), so the steady-state rollout loop allocates
// nothing in the network at either precision.
func (eng *Engine) newRankModels() *rankModels {
	n := len(eng.ens.Models)
	rm := &rankModels{
		models: make([]*nn.Sequential, n),
		in:     make([]*tensor.Tensor, n),
		out:    make([]*tensor.Tensor, n),
	}
	p, halo, ch := eng.ens.Partition, eng.ens.ModelCfg.Halo(), eng.ens.ModelCfg.Channels
	for r, m := range eng.ens.Models {
		if !eng.hostsRank(r) {
			continue // a remote process's rank on a distributed world
		}
		b := p.BlockOfRank(r)
		rm.in[r] = tensor.New(1, ch[0], b.Height()+2*halo, b.Width()+2*halo)
		rm.out[r] = tensor.New(1, ch[len(ch)-1], b.Height(), b.Width())
		c := m.CloneShared()
		if err := c.SetPrecision(eng.precision); err != nil {
			panic(fmt.Sprintf("core: precision: %v", err)) // NewEngine probed every model
		}
		rm.models[r] = c
	}
	return rm
}

// acquire takes a pooled clone set (allocating one if the pool is dry).
func (eng *Engine) acquire() *rankModels { return eng.pool.Get().(*rankModels) }

// release returns a clone set to the pool for the next session.
func (eng *Engine) release(rm *rankModels) { eng.pool.Put(rm) }

// validateStates checks a history of full-domain states against the
// engine's grid, channel count and window, returning the effective
// window. Validation failures wrap the named errors ErrBadWindow and
// ErrShapeMismatch so callers (the HTTP front end) can branch with
// errors.Is.
func (eng *Engine) validateStates(states []*tensor.Tensor) (window int, err error) {
	window = eng.ens.window()
	if len(states) < window {
		return 0, fmt.Errorf("core: need %d initial states for temporal window %d, got %d: %w", window, window, len(states), ErrBadWindow)
	}
	p := eng.ens.Partition
	for _, st := range states {
		if st.Rank() != 3 || st.Dim(1) != p.Ny || st.Dim(2) != p.Nx {
			return 0, fmt.Errorf("core: state %v does not match grid %dx%d: %w", st.Shape(), p.Nx, p.Ny, ErrShapeMismatch)
		}
		if st.Dim(0) != states[0].Dim(0) {
			return 0, fmt.Errorf("core: history states mix channel counts %d and %d: %w", states[0].Dim(0), st.Dim(0), ErrShapeMismatch)
		}
	}
	if c := states[0].Dim(0); eng.ens.ModelCfg.Channels[0] != c*window {
		return 0, fmt.Errorf("core: %d-channel states with window %d need a %d-channel model, ensemble has %d: %w",
			c, window, c*window, eng.ens.ModelCfg.Channels[0], ErrShapeMismatch)
	}
	if eng.ens.ModelCfg.Strategy == model.InnerCrop {
		return 0, fmt.Errorf("core: the inner-crop strategy cannot serve: its output omits the subdomain interface points (paper §III)")
	}
	return window, nil
}

// Predict evaluates one step from a fully known history of full-domain
// states (oldest first, at least Window of them) without any message
// passing — the §IV-B one-step evaluation path, served concurrently:
// any number of Predict calls may run at once, each on its own pooled
// clone set. Each rank runs the forward of a session's first step, so
// the two agree bit for bit. Errors carry the context's request ID.
func (eng *Engine) Predict(ctx context.Context, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapRequestErr(ctx, err)
	}
	if eng.local != nil {
		return nil, wrapRequestErr(ctx, fmt.Errorf("core: one-step prediction evaluates every rank in-process; this engine's world hosts only rank(s) %v — build an engine without WithWorld for one-step prediction", eng.world.LocalRanks()))
	}
	if _, err := eng.validateStates(states); err != nil {
		return nil, wrapRequestErr(ctx, err)
	}
	rm := eng.acquire()
	defer eng.release(rm)
	return eng.predictOne(rm, states), nil
}

// predictOne evaluates one validated request on the clone set rm. Each
// rank writes the halo-extended windows of the request's newest Window
// frames into the channel slabs of rm.in[r], forwards them into
// rm.out[r] and copies its block into a fresh frame the caller owns.
// The ranks run one after another on the caller's goroutine;
// concurrent callers each hold their own clone set.
func (eng *Engine) predictOne(rm *rankModels, states []*tensor.Tensor) *tensor.Tensor {
	p := eng.ens.Partition
	halo := eng.ens.ModelCfg.Halo()
	states = states[len(states)-eng.ens.window():]
	c := states[0].Dim(0)
	frame := tensor.New(1, c, p.Ny, p.Nx)
	for r := range p.Ranks() {
		in, out := rm.in[r], rm.out[r]
		slab := in.Size() / len(states)
		for k, st := range states {
			p.HaloWindowInto(in.Data()[k*slab:(k+1)*slab], st, r, halo)
		}
		rm.models[r].ForwardInto(in, out)
		b := p.BlockOfRank(r)
		tensor.SetSubImage(frame, out, b.J0, b.I0)
	}
	return frame.Reshape(c, p.Ny, p.Nx)
}

// Session is one autoregressive rollout in progress: an incremental,
// cancellable iterator over prediction steps. It holds O(1) frames of
// state (the per-rank halo-extended histories), so a 10k-step rollout
// costs the same memory as a 1-step one. A Session is not itself
// goroutine-safe — one goroutine drives it — but any number of
// Sessions over the same Engine may run concurrently (each on its own
// world; a WithWorld engine serves one session at a time instead).
//
// On a distributed world, each process's session computes only its
// local rank(s); Step returns the gathered frame on the process
// hosting rank 0 and nil elsewhere.
type Session struct {
	eng      *Engine
	rm       *rankModels
	world    *mpi.World         // one world for the whole session; each Step is one Run over it
	ownWorld bool               // the session built (and will close) the world itself
	hist     [][]*tensor.Tensor // per rank: extended frames, oldest first
	channels int
	step     int
	trace    string // request ID captured from NewSession's context
	closed   bool
	broken   bool // a Step failed: ranks disagree on the step and strips may be queued

	stats     mpi.CommStats // cumulative over all steps
	haloStats mpi.CommStats // cumulative halo-exchange share (rank 0)
	lastStats mpi.CommStats // most recent step only
	lastHalo  mpi.CommStats
}

// NewSession starts a rollout from the given full-domain initial
// states (oldest first; ensembles with temporal window w need at least
// w of them — a single-frame ensemble needs one). The session's model
// clones come from the engine's pool; Close returns them.
func (eng *Engine) NewSession(ctx context.Context, initials ...*tensor.Tensor) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	window, err := eng.validateStates(initials)
	if err != nil {
		return nil, err
	}
	p := eng.ens.Partition
	halo := eng.ens.ModelCfg.Halo()
	c := initials[0].Dim(0)
	// Pre-slice each hosted rank's initial history. Initial states are
	// fully known, so their halos come from direct slicing — no
	// messages.
	hist := make([][]*tensor.Tensor, p.Ranks())
	for r := range hist {
		if !eng.hostsRank(r) {
			continue
		}
		b := p.BlockOfRank(r)
		hist[r] = make([]*tensor.Tensor, window)
		for k, full := range initials[len(initials)-window:] {
			hist[r][k] = tensor.New(1, c, b.Height()+2*halo, b.Width()+2*halo)
			p.HaloWindowInto(hist[r][k].Data(), full, r, halo)
		}
	}
	// One message-passing world for the whole session; each Step is one
	// Run over it, so per-step stats come for free (Run reports
	// per-invocation deltas) without rebuilding the mailboxes every
	// step. A WithWorld engine hands out its bound world instead —
	// exclusively, since concurrent sessions would interleave their
	// messages on it.
	world := eng.world
	ownWorld := world == nil
	if ownWorld {
		var opts []mpi.Option
		if eng.netModel != nil {
			opts = append(opts, mpi.WithNetModel(eng.netModel))
		}
		world = mpi.NewWorld(p.Ranks(), opts...)
	} else if !eng.worldBusy.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("core: %w", ErrWorldBusy)
	}
	s := &Session{
		eng:      eng,
		rm:       eng.acquire(),
		world:    world,
		ownWorld: ownWorld,
		hist:     hist,
		channels: c,
		trace:    RequestID(ctx),
	}
	return s, nil
}

// addStats accumulates src into dst.
func addStats(dst *mpi.CommStats, src mpi.CommStats) {
	dst.MessagesSent += src.MessagesSent
	dst.BytesSent += src.BytesSent
	dst.MessagesRecv += src.MessagesRecv
	dst.BytesRecv += src.BytesRecv
	dst.VirtualCommSeconds += src.VirtualCommSeconds
}

// subStats returns a - b componentwise.
func subStats(a, b mpi.CommStats) mpi.CommStats {
	return mpi.CommStats{
		MessagesSent:       a.MessagesSent - b.MessagesSent,
		BytesSent:          a.BytesSent - b.BytesSent,
		MessagesRecv:       a.MessagesRecv - b.MessagesRecv,
		BytesRecv:          a.BytesRecv - b.BytesRecv,
		VirtualCommSeconds: a.VirtualCommSeconds - b.VirtualCommSeconds,
	}
}

// Step advances the rollout by one autoregressive step and returns the
// predicted full-domain CHW state. Every rank forwards its window of
// halo-extended history frames into its clone set's output buffer —
// the very input Predict builds for it, through the same call, so
// step 1 of a session IS Predict, bit for bit — then swaps halo strips
// with its neighbours where the model strategy needs them
// (exchangeHalo, the scheme's only genuine communication), and the
// pieces are gathered into one frame on rank 0
// (nil is returned by processes not hosting rank 0 on a distributed
// world).
//
// The context bounds the whole step. A context already done returns
// ctx.Err() without touching the rollout state, so the session remains
// usable if the caller retries. Once the step runs, a cancel or
// deadline closes the session's world, so a rank blocked on a peer
// that will never send — a partition, a hung or crashed peer process —
// fails at once instead of waiting for ever. Such a step returns an
// error that wraps ctx.Err() and names the blocked rank and the
// (from, tag) it waited on. A step that fails part-way, cancelled or
// not, breaks the session: ranks have advanced unevenly and the world
// is closed (World.Run closes it when a rank fails), so every later
// Step returns ErrSessionBroken.
func (s *Session) Step(ctx context.Context) (*tensor.Tensor, error) {
	if s.closed {
		return nil, fmt.Errorf("core: Step: %w", ErrSessionClosed)
	}
	if s.broken {
		return nil, s.traced(fmt.Errorf("core: Step: %w", ErrSessionBroken))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := s.eng.ens.Partition
	halo := s.eng.ens.ModelCfg.Halo()
	window := s.eng.ens.window()

	var frame *tensor.Tensor
	var haloDelta mpi.CommStats
	// A context that can never be done needs no watcher.
	stop := func() bool { return true }
	if ctx.Done() != nil {
		world := s.world
		stop = context.AfterFunc(ctx, func() { world.Close() })
	}
	err := s.world.Run(func(comm *mpi.Comm) {
		r := comm.Rank()
		hist, out := s.hist[r], s.rm.out[r]
		in := hist[window-1]
		if window > 1 {
			in = s.rm.in[r]
			slab := in.Size() / window
			for k, f := range hist {
				copy(in.Data()[k*slab:], f.Data())
			}
		}
		s.rm.models[r].ForwardInto(in, out)

		// The oldest frame has been consumed; it becomes the new
		// prediction's extended frame.
		next := hist[0]
		before := comm.Stats()
		exchangeHalo(mpi.NewCart(comm, p.Px, p.Py, false), out, next, halo)
		if r == 0 {
			haloDelta = subStats(comm.Stats(), before)
		}
		copy(hist, hist[1:])
		hist[window-1] = next

		// Gather this step's prediction on rank 0.
		pieces := comm.Gather(0, out.Data())
		if r == 0 {
			parts := make([]*tensor.Tensor, p.Ranks())
			for pr := range pieces {
				pb := p.BlockOfRank(pr)
				parts[pr] = tensor.FromSlice(pieces[pr], s.channels, pb.Height(), pb.Width())
			}
			frame = p.GatherCHW(parts)
		}
	})
	// stop fails once the cancel has closed the world, even if every
	// rank finished first: the session cannot step again either way.
	if !stop() {
		if err == nil {
			err = errors.New("the world closed after the step")
		}
		err = fmt.Errorf("%w: %w", ctx.Err(), err)
	}
	if err != nil {
		s.broken = true
		// The *mpi.RankPanicError inside names the rank and the
		// (from, tag) of the receive or send it failed in; traced adds
		// the request.
		return nil, s.traced(fmt.Errorf("core: Step: %w", err))
	}
	s.lastStats = s.world.TotalStats()
	s.lastHalo = haloDelta
	addStats(&s.stats, s.lastStats)
	addStats(&s.haloStats, haloDelta)
	s.step++
	return frame, nil
}

// traced stamps the session's request ID, if any, onto a step error.
func (s *Session) traced(err error) error {
	if s.trace == "" {
		return err
	}
	return fmt.Errorf("request=%s: %w", s.trace, err)
}

// Run drives the session `steps` steps, handing each predicted frame
// to fn as it is produced (fn may be nil to discard frames; on a
// distributed world, processes not hosting rank 0 receive nil frames).
// Frames are NOT retained by the session, so memory stays O(1) in
// steps — stream them to disk, metrics, or a network socket from fn.
// Run stops early and returns the error if the context is cancelled
// (a blocked step ends at once; see Step) or fn returns non-nil.
func (s *Session) Run(ctx context.Context, steps int, fn func(k int, frame *tensor.Tensor) error) error {
	if steps <= 0 {
		return fmt.Errorf("core: non-positive rollout steps %d", steps)
	}
	for k := 0; k < steps; k++ {
		frame, err := s.Step(ctx)
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(k, frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// Steps returns how many steps the session has completed.
func (s *Session) Steps() int { return s.step }

// CommStats returns the cumulative communication cost of all steps so
// far (halo exchanges plus result gathers); the numbers are identical
// across transports.
func (s *Session) CommStats() mpi.CommStats { return s.stats }

// HaloCommStats returns the cumulative halo-exchange share of the
// traffic (rank 0's view, excluding result gathers) — the number the
// paper's §III discussion is about.
func (s *Session) HaloCommStats() mpi.CommStats { return s.haloStats }

// LastStepStats returns the most recent step's communication cost
// (total, halo share) — the incremental per-step report.
func (s *Session) LastStepStats() (comm, halo mpi.CommStats) {
	return s.lastStats, s.lastHalo
}

// Close releases the session's model clones back to the engine's pool,
// closes a world the session built itself and hands a bound world back
// to the engine for the next session. Closing twice is a no-op; using
// the session after Close fails with ErrSessionClosed.
//
// A broken session (a rank failed or was cancelled mid-step) has
// closed its world, so a bound world stays busy for good: build a
// fresh world for the next session.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.ownWorld {
		s.world.Close()
	} else if !s.broken {
		s.eng.worldBusy.Store(false)
	}
	s.eng.release(s.rm)
	s.rm = nil
	s.hist = nil
	s.world = nil
	return nil
}
