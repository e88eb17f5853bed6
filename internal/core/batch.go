package core

import (
	"context"
	"fmt"

	"repro/internal/tensor"
)

// PredictResult is one request's outcome within a PredictBatch call:
// either the predicted full-domain frame or that request's own error.
type PredictResult struct {
	Frame *tensor.Tensor
	Err   error
}

// PredictBatch evaluates one step for a micro-batch of independent
// requests — each a history of full-domain states as in Predict — one
// after another on one acquired clone set, each through predictOne:
// the very per-rank ForwardInto a session step runs.
//
// Per-request error isolation: a request that fails validation
// (ErrBadWindow, ErrShapeMismatch) gets its own PredictResult.Err and
// does not poison the rest of the batch. The returned slice always
// has len(reqs) entries, index-aligned with reqs. A non-nil top-level
// error (cancelled context, empty batch, an engine that cannot serve
// Predict at all) means no request was evaluated.
//
// Every request is computed exactly as it would be in a batch of its
// own (which is what Predict does), so the Batcher can coalesce
// concurrent Predict callers transparently.
func (eng *Engine) PredictBatch(ctx context.Context, reqs [][]*tensor.Tensor) ([]PredictResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if eng.local != nil {
		return nil, fmt.Errorf("core: one-step prediction evaluates every rank in-process; this engine's world hosts only rank(s) %v — build an engine without WithWorld for one-step prediction", eng.world.LocalRanks())
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("core: PredictBatch of zero requests")
	}
	out := make([]PredictResult, len(reqs))
	rm := eng.acquire()
	defer eng.release(rm)
	for i, states := range reqs {
		if _, err := eng.validateStates(states); err != nil {
			out[i].Err = err
			continue
		}
		out[i].Frame = eng.predictOne(rm, states)
	}
	return out, nil
}

// predictOne evaluates one validated request on the clone set rm. Each
// rank writes the halo-extended windows of the request's newest Window
// frames into the channel slabs of rm.in[r], forwards them into
// rm.out[r] and copies its block into a fresh frame the caller owns.
//
// Ranks are independent models with disjoint outputs, so with
// WithWorkers(n) they fan out to goroutines on top of each clone's own
// intra-layer parallelism; each rank is served by exactly one task, so
// clone caches and buffers are never shared, and the assignment of
// ranks to workers cannot change any result.
func (eng *Engine) predictOne(rm *rankModels, states []*tensor.Tensor) *tensor.Tensor {
	p := eng.ens.Partition
	halo := eng.ens.ModelCfg.Halo()
	states = states[len(states)-eng.ens.window():]
	c := states[0].Dim(0)
	frame := tensor.New(1, c, p.Ny, p.Nx)
	rankWorkers := 1
	if eng.workersSet && eng.workers > 1 {
		rankWorkers = eng.workers
	}
	tensor.ParallelFor(p.Ranks(), rankWorkers, func(r int) {
		in, out := rm.in[r], rm.out[r]
		slab := in.Size() / len(states)
		for k, st := range states {
			p.HaloWindowInto(in.Data()[k*slab:(k+1)*slab], st, r, halo)
		}
		rm.models[r].ForwardInto(in, out)
		b := p.BlockOfRank(r)
		tensor.SetSubImage(frame, out, b.J0, b.I0)
	})
	return frame.Reshape(c, p.Ny, p.Nx)
}
