package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// workload is one set of inputs the benchmark runs. procs is the
// GOMAXPROCS the harness sets for it (README noise rule 3); every
// workload is driven by one goroutine that waits for each reply.
type workload struct {
	name  string
	procs int
	setup func(e *env) (runner, error)
}

// runner is a workload after set-up.
type runner interface {
	// warm runs the discarded warm-up ops.
	warm() error
	// run performs timed ops until rec is full. Every op's output is
	// checked; a wrong or failed op is recorded as failed.
	run(rec *recorder)
	// facts are the workload's exact counts and checksums, for the
	// report and the tests.
	facts() map[string]float64
	close()
}

// opLoop is the warm-up and the timed loop of a workload whose op is
// one call; op returns the timed part of the call and whether its
// output was right.
type opLoop struct {
	name   string
	warmup int
	op     func() (time.Duration, error)
}

func (l opLoop) warm() error {
	for i := 0; i < l.warmup; i++ {
		if _, err := l.op(); err != nil {
			return err
		}
	}
	return nil
}

func (l opLoop) run(rec *recorder) {
	for !rec.full() {
		d, err := l.op()
		if err != nil {
			fmt.Printf("%s: FAILED: %v\n", l.name, err)
		}
		rec.add(d, err == nil)
	}
}

var workloads = []workload{
	{"train_p4", 1, setupTrain},
	{"rollout_p4", 1, setupRollout},
	{"predict_engine", 1, setupPredictEngine},
	{"predict_http", 1, setupPredictHTTP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checksum folds a frame's bits into one float64-exact integer
// (< 2^53), so the report shows at a glance whether two runs computed
// the same numbers.
func checksum(ts ...*tensor.Tensor) float64 {
	var h uint64 = 1469598103934665603
	for _, t := range ts {
		for _, v := range t.Data() {
			h = (h ^ math.Float64bits(v)) * 1099511628211
		}
	}
	return float64(h >> 11)
}

func allFinite(t *tensor.Tensor) bool {
	for _, v := range t.Data() {
		if !finite(v) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// train_p4: communication-free per-subdomain training (§III, Fig. 4).

type trainRunner struct {
	e   *env
	ds  *dataset.Dataset
	cfg core.TrainConfig
	// p1EpochS is the single-worker reference: seconds per epoch of the
	// P = 1 whole-domain network, trained in set-up.
	p1EpochS float64

	calls     int     // completed Train calls
	finalLoss float64 // Σ over ranks of the first completed call's final loss
	commBytes int64
	critPathS float64 // per epoch, last completed call
	epochs    []float64
}

func setupTrain(e *env) (runner, error) {
	ds, err := genData(e)
	if err != nil {
		return nil, err
	}
	_, iv, err := trainTimed(context.Background(), ds, e.trainConfig(e.sz.baseEpochs), 1, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("P=1 baseline: %w", err)
	}
	return &trainRunner{e: e, ds: ds, cfg: e.trainConfig(e.sz.trainEpochs), p1EpochS: median(iv)}, nil
}

// warm is empty: each rank's first epoch, which builds the network,
// slices the data and grows the scratch arena, is the warm-up and is
// never recorded.
func (t *trainRunner) warm() error { return nil }

// run repeats a fixed Train call. One op is one rank-epoch: the
// interval between consecutive progress events of a rank.
func (t *trainRunner) run(rec *recorder) {
	for !rec.full() {
		ctx, cancel := context.WithCancel(context.Background())
		ops := 0
		res, _, err := trainTimed(ctx, t.ds, t.cfg, px, py, func(p core.Progress, start, end time.Time) {
			if p.Epoch == 0 || rec.full() {
				return
			}
			rec.add(end.Sub(start), finite(p.Loss))
			ops++
			t.epochs = append(t.epochs, end.Sub(start).Seconds())
			t.e.tr.record("train.rank_epoch", fmt.Sprintf("%d/rank%d/epoch%d", len(t.epochs), p.Rank, p.Epoch), "", start, end)
			if rec.full() {
				cancel() // the phase is over; abandon the rest of this call
			}
		})
		cancel()
		if errors.Is(err, context.Canceled) && rec.full() {
			return
		}
		if err == nil {
			err = t.checkCall(res)
		}
		if err != nil {
			fmt.Println("train_p4: FAILED:", err)
			if ops == 0 {
				// The call failed before its first timed epoch: one
				// failed op, and the next call would fail the same way.
				rec.add(0, false)
				return
			}
			rec.fail(ops)
		}
	}
}

// checkCall applies the checks that need a whole Train call: nothing
// was communicated, every rank's loss is finite and fell, and the call
// computed exactly what the first call did.
func (t *trainRunner) checkCall(res *core.ParallelResult) error {
	cs := res.TrainCommStats
	t.commBytes += cs.BytesSent + cs.BytesRecv
	if cs.MessagesSent+cs.MessagesRecv+cs.BytesSent+cs.BytesRecv != 0 {
		return fmt.Errorf("training communicated: %v", cs)
	}
	sum := 0.0
	for _, rr := range res.Ranks {
		for _, l := range rr.History {
			if !finite(l) {
				return fmt.Errorf("rank %d: loss history %v is not finite", rr.Rank, rr.History)
			}
		}
		// Adam at the paper's learning rate overshoots in single epochs,
		// so the check is that training got below its first epoch at
		// all, not that the last epoch happened to.
		if len(rr.History) < 2 || slices.Min(rr.History[1:]) >= rr.History[0] {
			return fmt.Errorf("rank %d: loss never fell below its first epoch: %v", rr.Rank, rr.History)
		}
		sum += rr.FinalLoss()
	}
	if t.calls == 0 {
		t.finalLoss = sum
	} else if sum != t.finalLoss {
		return fmt.Errorf("final loss %v differs from the first call's %v", sum, t.finalLoss)
	}
	t.calls++
	t.critPathS = res.CriticalPathSeconds / float64(t.cfg.Epochs)
	return nil
}

func (t *trainRunner) facts() map[string]float64 {
	f := map[string]float64{
		"train.final_loss":    t.finalLoss,
		"train.comm_bytes":    float64(t.commBytes),
		"train.rank_epoch_ms": median(t.epochs) * 1e3,
		"train.calls":         float64(t.calls),
	}
	if t.critPathS > 0 {
		f["train.speedup_p4"] = t.p1EpochS / t.critPathS
	}
	return f
}

func (t *trainRunner) close() {}

// ---------------------------------------------------------------------
// rollout_p4: streaming rollout on the fast path.

type rolloutRunner struct {
	opLoop
	e   *env
	sv  *serving
	eng *core.Engine
	ses *core.Session
	ctx context.Context

	ref       []*tensor.Tensor // first frames of an f64 blocking session from frames[0]
	sessions  int              // sessions opened
	step      int              // steps taken in the current session
	haloBytes int64            // expected per steady-state step, from the geometry
	haloMsgs  int64
	seenBytes int64 // observed in the last checked step
	seenMsgs  int64
	first     []*tensor.Tensor // the first session's first frames, for the checksum
}

const refFrames = 8

func setupRollout(e *env) (runner, error) {
	sv, err := buildServing(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	r := &rolloutRunner{e: e, sv: sv, ctx: ctx}
	r.opLoop = opLoop{"rollout_p4", e.sz.warmup, r.op}
	ref, err := core.NewEngine(sv.ens)
	if err != nil {
		return nil, err
	}
	ses, err := ref.NewSession(ctx, sv.frames[0])
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	for k := 0; k < min(refFrames, e.sz.sessionSteps); k++ {
		f, err := ses.Step(ctx)
		if err != nil {
			return nil, fmt.Errorf("reference rollout: %w", err)
		}
		r.ref = append(r.ref, f.Clone())
	}
	r.eng, err = core.NewEngine(sv.ens, core.WithPrecision(nn.F32), core.WithExchangeMode(core.Overlap))
	if err != nil {
		return nil, err
	}
	// Rank 0 of a 2×2 grid has one east and one north neighbour: per
	// step it sends one west/east strip (C × h × halo) and one
	// south/north strip over the extended width (C × halo × (w + 2·halo)).
	b := sv.ens.Partition.BlockOfRank(0)
	halo := sv.ens.ModelCfg.Halo()
	c := sv.frames[0].Dim(0)
	r.haloBytes = int64(8 * c * halo * (b.Height() + b.Width() + 2*halo))
	r.haloMsgs = 2
	return r, nil
}

// next opens the next session once the current one has run its length:
// a user rolls out trajectories of sessionSteps steps back to back.
// Opening is not part of any op.
func (r *rolloutRunner) next() error {
	if r.ses != nil && r.step < r.e.sz.sessionSteps {
		return nil
	}
	if r.ses != nil {
		r.ses.Close()
	}
	ses, err := r.eng.NewSession(r.ctx, r.sv.frames[r.sessions%len(r.sv.frames)])
	if err != nil {
		return err
	}
	r.ses, r.step = ses, 0
	r.sessions++
	return nil
}

// op is one Session.Step with its checks; only the Step is timed.
func (r *rolloutRunner) op() (time.Duration, error) {
	if err := r.next(); err != nil {
		return 0, err
	}
	start := time.Now()
	frame, err := r.ses.Step(r.ctx)
	end := time.Now()
	d := end.Sub(start)
	r.e.tr.record("session.step", fmt.Sprintf("%d/%d", r.sessions, r.step), "", start, end)
	if err != nil {
		r.step = r.e.sz.sessionSteps // abandon the session
		return d, err
	}
	k := r.step
	r.step++
	if !allFinite(frame) {
		return d, fmt.Errorf("session %d step %d: frame is not finite", r.sessions, k)
	}
	if r.sessions == 1 && k < len(r.ref) {
		r.first = append(r.first, frame.Clone())
		// The f32 error budget is 5e-4 on states of order one; a
		// briefly trained network's rollout grows, so scale with it.
		tol := 5e-4 * max(1, r.ref[k].AbsMax())
		if diff := frame.Sub(r.ref[k]).AbsMax(); diff > tol {
			return d, fmt.Errorf("step %d: f32 frame differs from the f64 reference by %g, budget %g", k, diff, tol)
		}
	}
	if k >= 1 {
		_, h := r.ses.LastStepStats()
		r.seenBytes, r.seenMsgs = h.BytesSent, h.MessagesSent
		if h.BytesSent != r.haloBytes || h.MessagesSent != r.haloMsgs {
			return d, fmt.Errorf("step %d: halo traffic %d B / %d msgs, geometry says %d B / %d msgs",
				k, h.BytesSent, h.MessagesSent, r.haloBytes, r.haloMsgs)
		}
	}
	return d, nil
}

func (r *rolloutRunner) facts() map[string]float64 {
	return map[string]float64{
		"rollout.halo_bytes_per_step": float64(r.seenBytes),
		"rollout.halo_msgs_per_step":  float64(r.seenMsgs),
		"rollout.frames_checksum":     checksum(r.first...),
	}
}

func (r *rolloutRunner) close() {
	if r.ses != nil {
		r.ses.Close()
	}
}

// ---------------------------------------------------------------------
// predict_engine: one-step serving with the HTTP tiers bypassed.

type predictRunner struct {
	opLoop
	e      *env
	sv     *serving
	eng    *core.Engine
	golden []*tensor.Tensor
	n      int
	ctx    context.Context
}

func setupPredictEngine(e *env) (runner, error) {
	sv, err := buildServing(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	eng, err := core.NewEngine(sv.ens)
	if err != nil {
		return nil, err
	}
	golden, err := sv.goldens(ctx, eng)
	if err != nil {
		return nil, err
	}
	p := &predictRunner{e: e, sv: sv, eng: eng, golden: golden, ctx: ctx}
	p.opLoop = opLoop{"predict_engine", e.sz.warmup, p.op}
	return p, nil
}

func (p *predictRunner) op() (time.Duration, error) {
	i := p.n % len(p.sv.frames)
	p.n++
	start := time.Now()
	frame, err := p.eng.Predict(p.ctx, p.sv.frames[i])
	end := time.Now()
	p.e.tr.record("engine.predict", strconv.Itoa(p.n), "", start, end)
	if err != nil {
		return end.Sub(start), err
	}
	if !frame.Equal(p.golden[i]) {
		return end.Sub(start), fmt.Errorf("input %d: Predict differs from the golden frame", i)
	}
	return end.Sub(start), nil
}

func (p *predictRunner) facts() map[string]float64 {
	return map[string]float64{"predict.golden_checksum": checksum(p.golden...)}
}

func (p *predictRunner) close() {}

// ---------------------------------------------------------------------
// predict_http: the whole request path over loopback.

type httpRunner struct {
	opLoop
	e      *env
	st     *httpStack
	bodies [][]byte            // request bodies, encoded once (README noise rule 4)
	golden [][sha256.Size]byte // SHA-256 of the correct response body per input
	n      int
	ctx    context.Context
	reqLen int
	resLen int64
	hashes float64
}

func setupPredictHTTP(e *env) (runner, error) {
	sv, err := buildServing(e)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	eng, err := core.NewEngine(sv.ens)
	if err != nil {
		return nil, err
	}
	golden, err := sv.goldens(ctx, eng)
	if err != nil {
		return nil, err
	}
	st, err := newHTTPStack(eng, e.tr)
	if err != nil {
		return nil, err
	}
	h := &httpRunner{e: e, st: st, ctx: ctx}
	h.opLoop = opLoop{"predict_http", e.sz.warmup, h.op}
	// The golden hash of an input is that of the first response, once
	// that response has been decoded and found bit-identical to what
	// the engine computes directly.
	for i, f := range sv.frames {
		body, err := encodeJSON(f)
		if err != nil {
			st.close()
			return nil, err
		}
		h.bodies = append(h.bodies, body)
		var got serve.TensorJSON
		sum, n, _, err := h.post(i, "golden-"+strconv.Itoa(i), &got)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("golden request %d: %w", i, err)
		}
		if t, err := got.Tensor(); err != nil || !t.Equal(golden[i]) {
			st.close()
			return nil, fmt.Errorf("input %d: HTTP response differs from Engine.Predict (%v)", i, err)
		}
		h.golden = append(h.golden, sum)
		h.reqLen, h.resLen = len(body), n
		h.hashes += float64(uint64(sum[0])<<16 | uint64(sum[1])<<8 | uint64(sum[2]))
	}
	return h, nil
}

// post sends input i and streams the response through SHA-256; the
// load generator decodes nothing (README noise rule 4) unless decodeInto
// is set, as set-up does once per input.
func (h *httpRunner) post(i int, id string, decodeInto any) (sum [sha256.Size]byte, n int64, echoed string, err error) {
	req, err := http.NewRequestWithContext(h.ctx, http.MethodPost, h.st.url+"/v1/predict", bytes.NewReader(h.bodies[i]))
	if err != nil {
		return sum, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, id)
	resp, err := h.st.client.Do(req)
	if err != nil {
		return sum, 0, "", err
	}
	defer resp.Body.Close()
	hash := sha256.New()
	if decodeInto != nil {
		var buf bytes.Buffer
		if n, err = io.Copy(io.MultiWriter(hash, &buf), resp.Body); err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), decodeInto)
		}
	} else {
		n, err = io.Copy(hash, resp.Body)
	}
	if err != nil {
		return sum, n, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return sum, n, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	copy(sum[:], hash.Sum(nil))
	return sum, n, resp.Header.Get(serve.RequestIDHeader), nil
}

func (h *httpRunner) op() (time.Duration, error) {
	i := h.n % len(h.bodies)
	h.n++
	id := "op-" + strconv.Itoa(h.n)
	start := time.Now()
	sum, _, echoed, err := h.post(i, id, nil)
	end := time.Now()
	h.e.tr.record(spanClient, id, "", start, end)
	switch {
	case err != nil:
		return end.Sub(start), err
	case echoed != id:
		return end.Sub(start), fmt.Errorf("request %s: X-Request-ID echoed as %q", id, echoed)
	case sum != h.golden[i]:
		return end.Sub(start), fmt.Errorf("request %s: response body hash differs from the golden for input %d", id, i)
	}
	return end.Sub(start), nil
}

func (h *httpRunner) facts() map[string]float64 {
	return map[string]float64{
		"http.request_bytes":  float64(h.reqLen),
		"http.response_bytes": float64(h.resLen),
		"http.router_retries": float64(h.st.rt.Stats().Retries),
		"http.batch_fill":     h.st.srv.Stats().MeanFill(),
		"http.golden_hashes":  h.hashes,
	}
}

func (h *httpRunner) close() { h.st.close() }
