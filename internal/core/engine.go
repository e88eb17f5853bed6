package core

import (
	"context"
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
// its own scratch arena and worker count. Any number of sessions can therefore roll out concurrently over one
// Engine — the serving property the paper's cheap per-subdomain
// inference (§III) is meant to enable.
//
// By default each session communicates over its own in-process mpi
// world. WithWorld instead binds the engine to an externally built
// world — in particular a TCP world from mpi.DialTCP, which turns a
// session into one rank of a multi-process rollout (DESIGN.md §8).
type Engine struct {
	ens        *Ensemble
	workers    int
	workersSet bool // false = clones inherit the ensemble models' knob
	netModel   *mpi.NetModel
	chaos      *mpi.ChaosPlan
	precision  nn.Precision
	mode       ExchangeMode
	world      *mpi.World
	worldBusy  atomic.Bool  // a bound world serves one live session at a time
	local      map[int]bool // non-nil on a distributed world: ranks this process hosts
	pool       sync.Pool    // of *rankModels
}

// rankModels is one pooled set of per-rank inference clones.
type rankModels struct {
	models []*nn.Sequential
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine)

// WithWorkers sets the serving parallelism for this engine (0 or 1 =
// single-threaded; results are bit-identical for any value): the
// intra-layer tile parallelism of the convolution kernels in every
// session, and the per-rank fan-out of PredictBatch micro-batches.
// This never touches the shared models — the knob is applied to each
// session's private clones. Without this option, clones inherit whatever knob the
// ensemble's models already carry (e.g. from TrainConfig.Workers).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers, e.workersSet = n, true }
}

// WithNetModel attaches a virtual network-cost model: every session
// message is charged latency + size/bandwidth virtual time in its
// CommStats. A nil model is ignored. On a world supplied via
// WithWorld, the world's own NetModel governs instead.
func WithNetModel(m *mpi.NetModel) EngineOption {
	return func(e *Engine) { e.netModel = m }
}

// WithChaos injects the seeded fault plan into every session world
// this engine builds (mpi.WithChaos; DESIGN.md §11), so rollouts run
// under reproducible per-link delay/drop/duplicate/partition faults.
// On a world supplied via WithWorld the plan is ignored — pass
// mpi.WithChaos when building that world instead (every process of a
// distributed job must share one plan).
func WithChaos(plan mpi.ChaosPlan) EngineOption {
	return func(e *Engine) { e.chaos = &plan }
}

// WithPrecision selects the numeric width of this engine's compute
// path (default nn.F64, the reference path carrying every bit-identity
// guarantee). nn.F32 serves every session and Predict call through the
// float32 kernels with prepacked float32 weights (DESIGN.md §13):
// weights are narrowed once at engine construction, activations once
// per request at the input, and results widen once at the output
// boundary. Frames agree with the f64 path to the documented error
// budget (EXPERIMENTS.md), never bit-for-bit; within the f32 path,
// results remain bit-identical for any worker count and across
// exchange modes. NewEngine fails if any layer of the ensemble's
// models has no float32 path (e.g. LSTM).
func WithPrecision(p nn.Precision) EngineOption {
	return func(e *Engine) { e.precision = p }
}

// WithExchangeMode selects the halo-exchange schedule for this
// engine's sessions (default Blocking). Overlap hides wire time behind
// interior compute; frames are bit-identical across modes (see
// ExchangeMode).
func WithExchangeMode(m ExchangeMode) EngineOption {
	return func(e *Engine) { e.mode = m }
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
	if eng.workersSet && eng.workers < 0 {
		return nil, fmt.Errorf("core: negative engine workers %d", eng.workers)
	}
	if eng.mode != Blocking && eng.mode != Overlap {
		return nil, fmt.Errorf("core: invalid exchange mode %d", int(eng.mode))
	}
	if eng.world != nil && eng.world.Size() != e.Partition.Ranks() {
		return nil, fmt.Errorf("core: engine world has %d ranks, partition needs %d",
			eng.world.Size(), e.Partition.Ranks())
	}
	if eng.precision != nn.F64 && eng.precision != nn.F32 {
		return nil, fmt.Errorf("core: invalid precision %d", int(eng.precision))
	}
	if eng.precision == nn.F32 {
		// Probe every rank model once: this surfaces unsupported layers
		// as a construction error instead of a serving panic, and — since
		// clones share their master's weight packs — performs the one
		// f64→f32 weight narrowing per Engine right here, off every
		// request path.
		for r, m := range e.Models {
			if err := m.CloneShared().SetPrecision(nn.F32); err != nil {
				return nil, fmt.Errorf("core: precision f32 unsupported by rank %d model: %w", r, err)
			}
		}
	}
	if eng.world != nil && eng.world.Distributed() {
		// This process computes only its local rank(s): don't pay for
		// the other N-1 ranks' model clones and pipeline state.
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

// Ensemble returns the wrapped ensemble (treat as read-only).
func (eng *Engine) Ensemble() *Ensemble { return eng.ens }

// newRankModels builds one fresh set of per-rank inference clones with
// the engine's knobs applied. Each clone shares the trained weights
// but owns its caches and a single deduplicated scratch arena (from
// CloneShared), so the steady-state rollout loop allocates nothing in
// the lowering.
func (eng *Engine) newRankModels() *rankModels {
	rm := &rankModels{models: make([]*nn.Sequential, len(eng.ens.Models))}
	for r, m := range eng.ens.Models {
		if !eng.hostsRank(r) {
			continue // a remote process's rank on a distributed world
		}
		c := m.CloneShared()
		if eng.workersSet {
			c.SetWorkers(eng.workers)
		}
		if eng.precision == nn.F32 {
			if err := c.SetPrecision(nn.F32); err != nil {
				// Unreachable: NewEngine probed every model.
				panic(fmt.Sprintf("core: precision f32: %v", err))
			}
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
// ErrShapeMismatch so callers (the Batcher, the HTTP front end) can
// branch with errors.Is.
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
// any number of Predict calls may run at once. It is the one-request
// case of PredictBatch.
func (eng *Engine) Predict(ctx context.Context, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	res, err := eng.PredictBatch(ctx, [][]*tensor.Tensor{states})
	if err != nil {
		return nil, err
	}
	return res[0].Frame, res[0].Err
}

// sessionRank is one rank's pipeline state within a Session: its tile
// plan and, in Overlap mode, the phase-1 receives posted for the
// newest frame.
type sessionRank struct {
	split      *nn.HaloSplit
	reqW, reqE *mpi.Request
	pending    bool // the newest history frame's halo ring is incomplete
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
	rk       []sessionRank
	mode     ExchangeMode
	channels int
	step     int
	trace    string // request ID captured from NewSession's context
	closed   bool
	broken   bool // a Step failed; pending requests may never complete

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
	// Pre-slice each rank's initial history. Initial states are fully
	// known, so their halos come from direct slicing — no messages.
	// One SplitCHW per frame hands every rank its piece.
	hist := make([][]*tensor.Tensor, p.Ranks())
	for r := range hist {
		if eng.hostsRank(r) {
			hist[r] = make([]*tensor.Tensor, window)
		}
	}
	for k := 0; k < window; k++ {
		full := initials[len(initials)-window+k]
		pieces := p.SplitCHW(full, halo)
		for r := 0; r < p.Ranks(); r++ {
			if !eng.hostsRank(r) {
				continue
			}
			b := p.BlockOfRank(r)
			hist[r][k] = pieces[r].Reshape(1, c, b.Height()+2*halo, b.Width()+2*halo)
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
		if eng.chaos != nil {
			opts = append(opts, mpi.WithChaos(*eng.chaos))
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
		rk:       make([]sessionRank, p.Ranks()),
		mode:     eng.mode,
		channels: c,
		trace:    RequestID(ctx),
	}
	// The interior/boundary tile plan per locally hosted rank (nil
	// where the split does not apply — the session falls back to
	// whole-frame forwards there, identically in both exchange modes).
	for r := 0; r < p.Ranks(); r++ {
		if !eng.hostsRank(r) {
			continue
		}
		b := p.BlockOfRank(r)
		s.rk[r].split = nn.NewHaloSplit(s.rm.models[r], b.Height(), b.Width(), halo)
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
// predicted full-domain CHW state: every rank predicts its subdomain
// through the interior/boundary tile pipeline, exchanges halo strips
// point-to-point where the model strategy needs them (the scheme's
// only genuine communication), and the pieces are gathered into one
// frame on rank 0 (nil is returned by processes not hosting rank 0 on
// a distributed world).
//
// In Blocking mode the two-phase exchange runs synchronously after the
// frame is produced. In Overlap mode the phase-1 (west/east) strips
// are posted non-blocking and complete during the NEXT step's interior
// tile compute; phase 2 overlaps the west/east boundary tiles. Both
// modes execute the same tile kernels in the same order, so their
// frames are bit-identical.
//
// Cancellation is checked before the step starts; a cancelled context
// returns ctx.Err() without touching the rollout state, so the session
// remains usable if the caller retries.
func (s *Session) Step(ctx context.Context) (*tensor.Tensor, error) {
	if s.closed {
		return nil, fmt.Errorf("core: Step: %w", ErrSessionClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := s.eng
	p := eng.ens.Partition
	halo := eng.ens.ModelCfg.Halo()
	window := eng.ens.window()
	c := s.channels
	world := s.world

	var frame *tensor.Tensor
	var haloDelta mpi.CommStats
	err := world.Run(func(comm *mpi.Comm) {
		r := comm.Rank()
		cart := mpi.NewCart(comm, p.Px, p.Py, false)
		b := p.BlockOfRank(r)
		bh, bw := b.Height(), b.Width()
		hist := s.hist[r]
		net := s.rm.models[r]
		st := &s.rk[r]
		// Tile inputs: a window of history frames cropped to the same
		// region of the extended coordinate frame, channel-stacked.
		crop := func(y0, y1, x0, x1 int) *tensor.Tensor {
			return tensor.SubImageConcat(y0, y1, x0, x1, hist...)
		}
		fullForward := func() *tensor.Tensor {
			in := hist[window-1]
			if window > 1 {
				in = tensor.ConcatChannels(hist...)
			}
			return net.Forward(in)
		}
		// trackHalo charges a communication segment to the session's
		// halo share (rank 0's view, as before).
		trackHalo := func(f func()) {
			if r != 0 {
				f()
				return
			}
			before := comm.Stats()
			f()
			addStats(&haloDelta, subStats(comm.Stats(), before))
		}

		var out *tensor.Tensor
		switch {
		case halo == 0:
			// Zero-pad / transpose-conv strategies: no halo, no
			// exchange, whole-frame forward.
			out = fullForward()
		case st.pending:
			// Overlap mode, steady state: the newest frame's phase-1
			// strips are in flight from the previous step. Compute the
			// interior tile (which needs no halo data) while they
			// travel, then complete the phases with boundary tiles in
			// between.
			ext := hist[window-1]
			var interior *tensor.Tensor
			if st.split != nil {
				interior = st.split.Interior(crop)
			}
			var reqS, reqN *mpi.Request
			trackHalo(func() {
				waitHaloPhase1(ext, halo, st.reqW, st.reqE)
				reqS, reqN = postHaloPhase2(cart, ext, halo)
			})
			st.reqW, st.reqE = nil, nil
			var west, east *tensor.Tensor
			if st.split != nil {
				west, east = st.split.WestEast(crop)
			}
			trackHalo(func() { waitHaloPhase2(ext, halo, reqS, reqN) })
			st.pending = false
			if st.split != nil {
				south, north := st.split.SouthNorth(crop)
				out = st.split.Finish(st.split.Assemble(interior, west, east, south, north))
			} else {
				out = fullForward()
			}
		default:
			// Complete halo ring (Blocking mode always; Overlap's first
			// step, whose halos came from slicing the initial states).
			// Same tile kernels in the same order as the overlapped
			// path, so the frames cannot diverge between modes.
			if st.split != nil {
				out = st.split.ForwardComplete(crop)
			} else {
				out = fullForward()
			}
		}
		if out.Dim(2) != bh || out.Dim(3) != bw {
			panic(fmt.Sprintf("core: rank %d produced %v for block %v", r, out.Shape(), b))
		}

		// Extend the new frame with neighbour halos for the next step.
		next := out
		if halo > 0 {
			if s.mode == Overlap {
				// Post phase 1 now; it completes during the next step's
				// interior compute (and overlaps this step's gather).
				next = newExtendedFrame(out, halo)
				trackHalo(func() { st.reqW, st.reqE = postHaloPhase1(cart, out, halo) })
				st.pending = true
			} else {
				trackHalo(func() { next = exchangeHalo(cart, out, halo) })
			}
		}
		s.hist[r] = append(hist[1:], next)
		// Gather this step's prediction on rank 0.
		pieces := comm.Gather(0, out.Data())
		if r == 0 {
			parts := make([]*tensor.Tensor, p.Ranks())
			for pr := range pieces {
				pb := p.BlockOfRank(pr)
				parts[pr] = tensor.FromSlice(pieces[pr], c, pb.Height(), pb.Width())
			}
			frame = p.GatherCHW(parts)
		}
	})
	if err != nil {
		s.broken = true
		// Stamp the session's request ID onto the failure: combined with
		// the *mpi.RankPanicError and the chaos transport's attribution
		// inside it, the surfaced error names request, rank and link.
		if s.trace != "" {
			return nil, fmt.Errorf("request=%s: %w", s.trace, err)
		}
		return nil, err
	}
	s.lastStats = world.TotalStats()
	s.lastHalo = haloDelta
	addStats(&s.stats, s.lastStats)
	addStats(&s.haloStats, haloDelta)
	s.step++
	return frame, nil
}

// Run drives the session `steps` steps, handing each predicted frame
// to fn as it is produced (fn may be nil to discard frames; on a
// distributed world, processes not hosting rank 0 receive nil frames).
// Frames are NOT retained by the session, so memory stays O(1) in
// steps — stream them to disk, metrics, or a network socket from fn.
// Run stops early and returns the error if the context is cancelled
// (within one step) or fn returns non-nil.
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

// TraceID returns the request ID the session was opened under (from
// ContextWithRequestID on the NewSession context), or "".
func (s *Session) TraceID() string { return s.trace }

// CommStats returns the cumulative communication cost of all steps so
// far (halo exchanges plus result gathers). In Overlap mode the final
// frame's phase-2 exchange never happens and its phase-1 receives
// complete only when Close drains them, so a closed Overlap session
// reports slightly fewer messages than a Blocking one (DESIGN.md §8);
// across transports the numbers are identical for identical schedules.
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

// Close releases the session's model clones back to the engine's pool
// and, in Overlap mode, drains the still-pending phase-1 receives of
// the final frame — so a bound world is left without stray messages
// and can serve the next session. If that drain fails (e.g. a TCP
// peer died while the receives were in flight), Close still releases
// every resource and returns the drain error wrapped — the session is
// fully closed either way, so callers that only want cleanup may
// ignore it, while callers reusing a bound world should treat it as
// fail-stop and build a fresh world. Closing twice is a no-op
// (returns nil); using the session after Close fails with
// ErrSessionClosed.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var drainErr error
	if s.mode == Overlap && !s.broken {
		drainErr = s.world.Run(func(comm *mpi.Comm) {
			st := &s.rk[comm.Rank()]
			if st.reqW != nil {
				st.reqW.Wait()
				st.reqW = nil
			}
			if st.reqE != nil {
				st.reqE.Wait()
				st.reqE = nil
			}
			st.pending = false
		})
		if drainErr == nil {
			addStats(&s.stats, s.world.TotalStats())
		}
	}
	if s.ownWorld {
		s.world.Close()
	} else if !s.broken && drainErr == nil {
		s.eng.worldBusy.Store(false)
	}
	// A broken session (a rank failed mid-step, or the close-time drain
	// itself failed) leaves its bound world permanently busy: peers'
	// halo/gather messages may still be queued and a new session's
	// receives would silently match them (identical tags and strip
	// sizes). Fail-stop — build a fresh world — rather than serve stale
	// data.
	s.eng.release(s.rm)
	s.rm = nil
	s.hist = nil
	s.world = nil
	if drainErr != nil {
		return fmt.Errorf("core: draining pending halo receives on close: %w", drainErr)
	}
	return nil
}
