package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/loss"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// prober runs the per-layer probes of the traced run: every module is
// timed from outside, by calling its public functions on the shapes the
// workloads give it. Times are medians of probeCalls calls.
type prober struct {
	e   *env
	sv  *serving
	m   map[string]float64
	err error // the first error of a timed call, which cannot return one
}

// keep remembers the first error raised inside a timed closure.
func (p *prober) keep(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// runProbes returns every per-layer metric that does not describe the
// traced workload itself.
func runProbes(e *env) (map[string]float64, error) {
	p := &prober{e: e, m: map[string]float64{}}
	runtime.GOMAXPROCS(1)
	groups := []struct {
		name string
		run  func() error
	}{
		{"data", p.data}, // builds p.sv, which the later groups use
		{"tensor", p.tensor},
		{"nn", p.nn},
		{"opt+loss", p.optLoss},
		{"trainer", p.trainer},
		{"session", p.session},
		{"mpi", p.mpi},
		{"engine", p.engine},
		{"codec", p.codec},
		{"http", p.http},
		{"noop hops", p.noopHops},
	}
	for _, g := range groups {
		p.keep(g.run())
		if p.err != nil {
			return nil, fmt.Errorf("probe %s: %w", g.name, p.err)
		}
	}
	return p.m, nil
}

// ms is the median duration of calls runs of f, in milliseconds.
func (p *prober) ms(f func()) float64 { return timeMS(p.e.sz.probeCalls, f) }

func timeMS(calls int, f func()) float64 {
	f() // warm
	d := make([]float64, calls)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0).Seconds() * 1e3
	}
	return median(d)
}

// allocsOf reports heap objects and megabytes allocated per call of f.
func allocsOf(calls int, f func()) (objects, mb float64) {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	n := float64(calls)
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n / 1e6
}

// tile is the edge of one rank's block.
func (p *prober) tile() int { return p.e.sz.grid / px }

// data times the offline data path, which explains setup_s, and builds
// the serving set-up the other probes share.
func (p *prober) data() error {
	n := p.e.sz.grid
	solver, err := euler.NewSolver(euler.DefaultConfig(n))
	if err != nil {
		return err
	}
	p.m["euler.step_ms"] = p.ms(func() { solver.Step() })
	t0 := time.Now()
	if _, err := genData(p.e); err != nil {
		return err
	}
	p.m["dataset.generate_s"] = time.Since(t0).Seconds()
	if p.sv, err = buildServing(p.e); err != nil {
		return err
	}
	part, halo := p.sv.ens.Partition, p.sv.ens.ModelCfg.Halo()
	p.m["decomp.scatter_ms"] = p.ms(func() { part.SplitCHW(p.sv.frames[0], halo) })
	return nil
}

// tensor times the kernels as the widest Table-I layer (6→16 channels,
// 5×5) uses them: on one cache-sized column tile of a rank tile's
// output positions (the layer sweeps about ten such tiles per frame),
// and the direct kernel on the 4→6 edge layer.
func (p *prober) tensor() error {
	const cin, cout, k, pad = 6, 16, 5, 2
	t := p.tile()
	ckk := tensor.Im2ColRows(cin, k)
	tw := min(t*t, (1<<16)/ckk&^7) // the layer's panel of ~512 KiB
	g := tensor.NewRNG(p.e.seed)
	x := tensor.Normal(g, 0, 1, cin, t, t).Data()
	w := tensor.Normal(g, 0, 0.1, cout, ckk).Data()
	dy := tensor.Normal(g, 0, 1, cout, tw).Data()
	cols := make([]float64, ckk*tw)
	out := make([]float64, cout*tw)
	dw := make([]float64, cout*ckk)
	dcols := make([]float64, ckk*tw)
	dx := make([]float64, cin*t*t)
	p.m["tensor.im2col_f64_ms"] = p.ms(func() { tensor.Im2ColWindow(x, cin, t, t, k, pad, 0, tw, cols) })
	p.m["tensor.gemm_nn_f64_ms"] = p.ms(func() { tensor.GemmNN(cout, tw, ckk, w, cols, out, false, 1) })
	p.m["tensor.gemm_nt_f64_ms"] = p.ms(func() { tensor.GemmNT(cout, ckk, tw, dy, cols, dw, false, 1) })
	p.m["tensor.gemm_tn_f64_ms"] = p.ms(func() { tensor.GemmTN(ckk, tw, cout, w, dy, dcols, false, 1) })
	p.m["tensor.col2im_f64_ms"] = p.ms(func() { tensor.Col2ImWindow(dcols, cin, t, t, k, pad, 0, tw, dx) })
	p.m["tensor.gemm_flops_per_call"] = float64(2 * cout * ckk * tw)
	p.m["tensor.im2col_bytes_per_call"] = float64(8 * ckk * tw)

	x32 := make([]float32, len(x))
	tensor.Narrow32(x32, x)
	w32 := make([]float32, len(w))
	tensor.Narrow32(w32, w)
	cols32 := make([]float32, len(cols))
	out32 := make([]float32, len(out))
	p.m["tensor.im2col_f32_ms"] = p.ms(func() { tensor.Im2ColWindow32(x32, cin, t, t, k, pad, 0, tw, cols32) })
	p.m["tensor.gemm_nn_f32_ms"] = p.ms(func() {
		tensor.GemmPanelNN32(cout, tw, ckk, w32, ckk, cols32, tw, out32, tw, false, 1)
	})

	// The edge layer as the rank network runs it: 4→6, valid, on the
	// halo-extended tile.
	const ein, eout = 4, 6
	halo := p.sv.ens.ModelCfg.Halo()
	te := t + 2*halo
	ex := make([]float32, ein*te*te)
	tensor.Narrow32(ex, tensor.Normal(g, 0, 1, ein, te, te).Data())
	ew := make([]float32, eout*ein*k*k)
	tensor.Narrow32(ew, tensor.Normal(g, 0, 0.1, eout, ein*k*k).Data())
	ey := make([]float32, eout*t*t)
	scratch := make([]float32, tensor.DirectConv32ScratchLen(ein, te, te, k, 0))
	p.m["tensor.directconv32_ms"] = p.ms(func() {
		tensor.DirectConv32(ex, ein, te, te, ew, eout, k, 0, nil, ey, scratch)
	})
	return nil
}

// rankNet builds one rank's network and its input: the tile extended by
// the halo the first layer consumes.
func (p *prober) rankNet(batch int) (*nn.Sequential, *tensor.Tensor, error) {
	cfg := p.e.trainConfig(1).Model
	net, err := model.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	net.SetScratch(nn.NewArena())
	te := p.tile() + 2*cfg.Halo()
	x := tensor.Uniform(tensor.NewRNG(p.e.seed), 0.1, 0.9, batch, cfg.Channels[0], te, te)
	return net, x, nil
}

// convInputs feeds x through net and returns every convolution layer
// with the input it sees.
func convInputs(net *nn.Sequential, x *tensor.Tensor) (convs []*nn.Conv2D, ins []*tensor.Tensor) {
	for _, l := range net.Layers() {
		if c, ok := l.(*nn.Conv2D); ok {
			convs = append(convs, c)
			ins = append(ins, x)
		}
		x = l.Forward(x)
	}
	return convs, ins
}

// nn reproduces Table I per layer on the rank tile, in both
// precisions, and times the whole network. The f32 probes run on a
// second copy of the network: a Conv2D that has run an f32 forward
// routes its next Backward to the f32 path even after it is unpinned.
func (p *prober) nn() error {
	net, x, err := p.rankNet(1)
	if err != nil {
		return err
	}
	net32, _, err := p.rankNet(1)
	if err != nil {
		return err
	}
	convs, ins := convInputs(net, x)
	convs32, _ := convInputs(net32, x)
	for i, c := range convs {
		in := ins[i]
		var y *tensor.Tensor
		p.m[fmt.Sprintf("nn.conv%d_fwd_f64_ms", i+1)] = p.ms(func() { y = c.Forward(in) })
		p.m[fmt.Sprintf("nn.conv%d_fwdbwd_f64_ms", i+1)] = p.ms(func() {
			c.Backward(c.Forward(in))
			nn.ZeroGrads(c)
		})
		one := nn.NewSequential(convs32[i])
		if err := one.SetPrecision(nn.F32); err != nil {
			return err
		}
		dst := tensor.New(y.Shape()...)
		p.m[fmt.Sprintf("nn.conv%d_fwd_f32_ms", i+1)] = p.ms(func() { one.ForwardInto(in, dst) })
	}
	var y *tensor.Tensor
	p.m["nn.net_fwd_f64_ms"] = p.ms(func() { y = net.Forward(x) })
	p.m["nn.net_fwdbwd_f64_ms"] = p.ms(func() {
		net.Backward(net.Forward(x))
		nn.ZeroGrads(net)
	})
	p.m["nn.net_fwd_f64_allocs"], _ = allocsOf(p.e.sz.probeCalls, func() { net.Forward(x) })
	if err := net32.SetPrecision(nn.F32); err != nil {
		return err
	}
	dst := tensor.New(y.Shape()...)
	p.m["nn.net_fwdinto_f32_ms"] = p.ms(func() { net32.ForwardInto(x, dst) })
	p.m["nn.net_fwdinto_f32_allocs"], _ = allocsOf(p.e.sz.probeCalls, func() { net32.ForwardInto(x, dst) })
	return nil
}

// optLoss times the optimiser and the loss on one training batch.
func (p *prober) optLoss() error {
	cfg := p.e.trainConfig(1)
	net, x, err := p.rankNet(cfg.BatchSize)
	if err != nil {
		return err
	}
	pred := net.Forward(x)
	target := tensor.Uniform(tensor.NewRNG(p.e.seed+1), 0.1, 0.9, pred.Shape()...)
	mape := loss.NewMAPE()
	_, grad := mape.Eval(pred, target)
	net.Backward(grad)
	adam := opt.NewAdamDefault()
	p.m["opt.adam_step_ms"] = p.ms(func() { adam.Step(net) })
	p.m["loss.mape_fwdbwd_ms"] = p.ms(func() { mape.Eval(pred, target) })
	return nil
}

// trainer measures Fig. 4's quantity: the P = 1 network against the
// critical path of the 2×2 scheme, with what a rank-epoch costs beyond
// its forward, backward, loss and optimiser calls.
func (p *prober) trainer() error {
	ctx := context.Background()
	ds := p.sv.ds
	_, one, err := trainTimed(ctx, ds, p.e.trainConfig(max(2, p.e.sz.baseEpochs-1)), 1, 1, nil)
	if err != nil {
		return err
	}
	cfg := p.e.trainConfig(max(2, p.e.sz.trainEpochs-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	res, four, err := trainTimed(ctx, ds, cfg, px, py, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&b)
	rankEpochs := float64(cfg.Epochs * px * py)
	critEpoch := res.CriticalPathSeconds / float64(cfg.Epochs)
	p.m["core.trainer.rank_epoch_ms"] = median(four) * 1e3
	p.m["core.trainer.crit_path_s"] = res.CriticalPathSeconds
	p.m["core.trainer.total_compute_s"] = res.TotalComputeSeconds
	p.m["core.trainer.speedup_p4"] = median(one) / critEpoch
	p.m["core.trainer.comm_bytes"] = float64(res.TrainCommStats.BytesSent + res.TrainCommStats.BytesRecv)
	p.m["core.trainer.allocs_per_rank_epoch"] = float64(b.Mallocs-a.Mallocs) / rankEpochs
	final := 0.0
	for _, rr := range res.Ranks {
		final += rr.FinalLoss()
	}
	p.m["core.trainer.final_loss"] = final

	// One rank-epoch's batches, called directly.
	pairs := ds.Len() - 1
	compute := 0.0
	for left := pairs; left > 0; left -= cfg.BatchSize {
		bs := min(left, cfg.BatchSize)
		net, x, err := p.rankNet(bs)
		if err != nil {
			return err
		}
		pred := net.Forward(x)
		target := tensor.Uniform(tensor.NewRNG(p.e.seed+2), 0.1, 0.9, pred.Shape()...)
		mape, adam := loss.NewMAPE(), opt.NewAdamDefault()
		compute += timeMS(max(3, p.e.sz.probeCalls/6), func() {
			nn.ZeroGrads(net)
			_, grad := mape.Eval(net.Forward(x), target)
			net.Backward(grad)
			adam.Step(net)
		})
	}
	p.m["core.trainer.overhead_share"] = 1 - compute/p.m["core.trainer.rank_epoch_ms"]
	return nil
}

// sessionSteps times probeCalls steps of sessions of eng, opened one
// after another at the workload's session length, and returns the
// median step, the allocations per step and the last step's traffic.
// A session's first step is not timed: its halos come from slicing the
// initial state, not from an exchange.
func (p *prober) sessionSteps(eng *core.Engine) (stepMS, allocs float64, comm, halo mpi.CommStats, err error) {
	ctx := context.Background()
	var d []float64
	var mallocs uint64
	for len(d) < p.e.sz.probeCalls {
		ses, err := eng.NewSession(ctx, p.sv.frames[0])
		if err != nil {
			return 0, 0, comm, halo, err
		}
		var a, b runtime.MemStats
		for k := 0; k < p.e.sz.sessionSteps && len(d) < p.e.sz.probeCalls; k++ {
			if k == 1 {
				runtime.ReadMemStats(&a)
			}
			t0 := time.Now()
			if _, err := ses.Step(ctx); err != nil {
				ses.Close()
				return 0, 0, comm, halo, err
			}
			if k > 0 {
				d = append(d, time.Since(t0).Seconds()*1e3)
			}
		}
		runtime.ReadMemStats(&b)
		mallocs += b.Mallocs - a.Mallocs
		comm, halo = ses.LastStepStats()
		ses.Close()
	}
	return median(d), float64(mallocs) / float64(len(d)), comm, halo, nil
}

// session times the rollout step on the fast path and the three ways
// it could be run differently: blocking exchange, f64, all processors.
func (p *prober) session() error {
	ctx := context.Background()
	fast, err := core.NewEngine(p.sv.ens, core.WithPrecision(nn.F32), core.WithExchangeMode(core.Overlap))
	if err != nil {
		return err
	}
	stepMS, allocs, comm, halo, err := p.sessionSteps(fast)
	if err != nil {
		return err
	}
	p.m["core.session.step_ms"] = stepMS
	p.m["core.session.allocs_per_step"] = allocs
	p.m["core.session.halo_bytes_per_step"] = float64(halo.BytesSent)
	p.m["core.session.halo_msgs_per_step"] = float64(halo.MessagesSent)
	// comm sums over the ranks, halo is rank 0's share; on a 2×2 grid
	// every rank has the same two neighbours' worth of halo traffic.
	p.m["core.session.gather_bytes_per_step"] = float64(comm.BytesSent) - float64(halo.BytesSent)*float64(px*py)
	p.m["core.session.new_session_ms"] = timeMS(max(3, p.e.sz.probeCalls/3), func() {
		ses, err := fast.NewSession(ctx, p.sv.frames[0])
		p.keep(err)
		if err == nil {
			ses.Close()
		}
	})

	// Σ over ranks of the rank network's own forward time on its tile;
	// what is left of the step is halo exchange, gather and scheduling.
	_, x, err := p.rankNet(1)
	if err != nil {
		return err
	}
	dst := tensor.New(1, x.Dim(1), p.tile(), p.tile())
	forward := 0.0
	for _, m := range p.sv.ens.Models {
		net := m.CloneShared()
		if err := net.SetPrecision(nn.F32); err != nil {
			return err
		}
		forward += p.ms(func() { net.ForwardInto(x, dst) })
	}
	p.m["core.session.noncompute_share"] = 1 - forward/stepMS

	blocking, err := core.NewEngine(p.sv.ens, core.WithPrecision(nn.F32), core.WithExchangeMode(core.Blocking))
	if err != nil {
		return err
	}
	if p.m["core.session.blocking_step_ms"], _, _, _, err = p.sessionSteps(blocking); err != nil {
		return err
	}
	f64, err := core.NewEngine(p.sv.ens, core.WithExchangeMode(core.Overlap))
	if err != nil {
		return err
	}
	if p.m["core.session.f64_step_ms"], p.m["core.session.f64_allocs_per_step"], _, _, err = p.sessionSteps(f64); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	p.m["core.session.step_ms_nproc"], _, _, _, err = p.sessionSteps(fast)
	runtime.GOMAXPROCS(1)
	return err
}

// mpi times one halo-sized exchange between the two ranks of a world,
// over both transports, and the gather of one frame's tiles.
func (p *prober) mpi() error {
	t, halo := p.tile(), p.sv.ens.ModelCfg.Halo()
	c := p.sv.frames[0].Dim(0)
	strip := make([]float64, c*t*halo)
	const rounds = 200
	exchange := func(comm *mpi.Comm) {
		peer := 1 - comm.Rank()
		for i := 0; i < rounds; i++ {
			comm.SendRecv(peer, 7, strip, peer, 7)
		}
	}
	reps := max(3, p.e.sz.probeCalls/6)
	mem := mpi.NewWorld(2)
	p.m["mpi.mem_sendrecv_halo_us"] = timeMS(reps, func() { p.keep(mem.Run(exchange)) }) * 1e3 / rounds
	p.keep(mem.Close())

	addrs, err := mpi.ReserveLocalAddrs(2)
	if err != nil {
		return err
	}
	worlds := make([]*mpi.World, 2)
	errs := make([]error, 2)
	both := func(f func(r int)) {
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(r)
			}()
		}
		wg.Wait()
	}
	both(func(r int) {
		worlds[r], errs[r] = mpi.DialTCP(mpi.TCPConfig{Rank: r, Peers: addrs, HandshakeTimeout: 20 * time.Second})
	})
	for _, w := range worlds {
		if w != nil {
			defer w.Close()
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.m["mpi.tcp_sendrecv_halo_us"] = timeMS(reps, func() {
		both(func(r int) {
			if err := worlds[r].Run(exchange); err != nil {
				errs[r] = err
			}
		})
	}) * 1e3 / rounds
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	piece := make([]float64, c*t*t)
	all := mpi.NewWorld(px * py)
	p.m["mpi.gather_frame_us"] = timeMS(reps, func() {
		p.keep(all.Run(func(comm *mpi.Comm) {
			for i := 0; i < rounds; i++ {
				comm.Gather(0, piece)
			}
		}))
	}) * 1e3 / rounds
	return all.Close()
}

// engine times one-step prediction without HTTP, directly and through
// a Batcher, and the artifact round trip that precedes serving.
func (p *prober) engine() error {
	ctx := context.Background()
	eng, err := core.NewEngine(p.sv.ens)
	if err != nil {
		return err
	}
	i := 0
	next := func() *tensor.Tensor { i++; return p.sv.frames[i%nInputs] }
	predict := func() {
		_, err := eng.Predict(ctx, next())
		p.keep(err)
	}
	p.m["core.engine.predict_ms"] = p.ms(predict)
	p.m["core.engine.predict_allocs"], p.m["core.engine.predict_alloc_mb"] = allocsOf(p.e.sz.probeCalls, predict)

	bat, err := core.NewBatcher(eng)
	if err != nil {
		return err
	}
	p.m["core.batcher.predict_ms"] = p.ms(func() {
		_, err := bat.Predict(ctx, next())
		p.keep(err)
	})
	p.m["core.batcher.overhead_ms"] = p.m["core.batcher.predict_ms"] - p.m["core.engine.predict_ms"]
	p.m["core.batcher.mean_fill"] = bat.Stats().MeanFill()
	p.keep(bat.Close())

	dir, err := os.MkdirTemp(p.e.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cks := make([]*model.Checkpoint, len(p.sv.ens.Models))
	part := p.sv.ens.Partition
	for r, m := range p.sv.ens.Models {
		ck := model.Snapshot(p.sv.ens.ModelCfg, m)
		ck.Rank, ck.Px, ck.Py, ck.Nx, ck.Ny = r, part.Px, part.Py, part.Nx, part.Ny
		cks[r] = ck
	}
	man, err := model.NewManifest("probe", "v1", cks)
	if err != nil {
		return err
	}
	reps := max(3, p.e.sz.probeCalls/6)
	p.m["model.write_artifact_ms"] = timeMS(reps, func() { p.keep(model.WriteArtifact(dir, man, cks)) })
	p.m["model.open_artifact_ms"] = timeMS(reps, func() {
		_, _, err := model.LoadArtifact(dir)
		p.keep(err)
	})
	p.m["core.engine.open_ms"] = timeMS(reps, func() {
		ens, _, err := core.OpenModel(dir)
		if err == nil {
			_, err = core.NewEngine(ens)
		}
		p.keep(err)
	})
	return nil
}

// codec times the wire formats alone on one frame.
func (p *prober) codec() error {
	frame := p.sv.frames[0]
	req := serve.PredictRequest{States: []serve.TensorJSON{serve.NewTensorJSON(frame)}}
	var jbuf, gbuf bytes.Buffer
	if err := json.NewEncoder(&jbuf).Encode(req); err != nil {
		return err
	}
	if err := gob.NewEncoder(&gbuf).Encode(req); err != nil {
		return err
	}
	p.m["serve.json_encode_ms"] = p.ms(func() { p.keep(json.NewEncoder(io.Discard).Encode(serve.NewTensorJSON(frame))) })
	p.m["serve.json_decode_ms"] = p.ms(func() {
		var out serve.PredictRequest
		p.keep(json.NewDecoder(bytes.NewReader(jbuf.Bytes())).Decode(&out))
	})
	p.m["serve.gob_encode_ms"] = p.ms(func() { p.keep(gob.NewEncoder(io.Discard).Encode(frame)) })
	p.m["serve.gob_decode_ms"] = p.ms(func() {
		var out serve.PredictRequest
		p.keep(gob.NewDecoder(bytes.NewReader(gbuf.Bytes())).Decode(&out))
	})
	return nil
}

// probeID prefixes the request IDs of the stage-budget requests.
const probeID = "probe-"

// http drives the assembled request path with the span wrappers on and
// derives the stage budget; then the same path used differently (gob
// wire, streaming rollout).
func (p *prober) http() error {
	tr := p.e.tr
	if !tr.active() {
		return fmt.Errorf("the stage budget needs an active tracer")
	}
	eng, err := core.NewEngine(p.sv.ens)
	if err != nil {
		return err
	}
	st, err := newHTTPStack(eng, tr)
	if err != nil {
		return err
	}
	defer st.close()
	h := &httpRunner{e: p.e, st: st, ctx: context.Background()}
	for _, f := range p.sv.frames {
		body, err := encodeJSON(f)
		if err != nil {
			return err
		}
		h.bodies = append(h.bodies, body)
	}
	calls := max(3, p.e.sz.probeCalls)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := -2; i < calls; i++ {
		id := probeID + strconv.Itoa(i)
		if i < 0 {
			id = "warm" + strconv.Itoa(i) // warms the connection and the clone pool
		}
		start := time.Now()
		_, n, _, err := h.post((i+nInputs)%nInputs, id, nil)
		end := time.Now()
		if err != nil {
			return err
		}
		tr.record(spanClient, id, "", start, end)
		p.m["serve.response_bytes"] = float64(n)
	}
	runtime.ReadMemStats(&b)
	p.m["serve.request_bytes"] = float64(len(h.bodies[0]))
	p.m["serve.alloc_mb_per_req"] = float64(b.TotalAlloc-a.TotalAlloc) / float64(calls+2) / 1e6
	p.m["serve.batch_fill"] = st.srv.Stats().MeanFill()
	var spans []span
	for _, s := range tr.snapshot() {
		if strings.HasPrefix(s.ID, probeID) {
			spans = append(spans, s)
		}
	}
	stages, err := stageBudget(spans, p.m["core.engine.predict_ms"])
	if err != nil {
		return err
	}
	for k, v := range stages {
		p.m[k] = v
	}

	// serve.Client names no request, so its requests belong to no
	// trace.
	tr.on.Store(false)
	defer tr.on.Store(true)
	ctx := context.Background()
	gobClient := &serve.Client{BaseURL: st.url, HTTPClient: st.client, Binary: true}
	i := 0
	p.m["serve.predict_gob_ms"] = timeMS(max(3, calls/3), func() {
		_, err := gobClient.Predict(ctx, p.sv.frames[i%nInputs])
		p.keep(err)
		i++
	})
	jsonClient := &serve.Client{BaseURL: st.url, HTTPClient: st.client}
	steps := min(32, 4*p.e.sz.sessionSteps)
	p.m["serve.rollout_frame_ms"] = timeMS(3, func() {
		p.keep(jsonClient.Rollout(ctx, steps, p.sv.frames[:1], func(int, *tensor.Tensor) error { return nil }))
	}) / float64(steps)
	p.m["router.retries"] = float64(st.rt.Stats().Retries)
	p.m["admission.shed"], err = admissionShed(st)
	return err
}

// admissionShed reads the gate's shed counters from the edge's
// /metrics, the only place the gate publishes them.
func admissionShed(st *httpStack) (float64, error) {
	resp, err := st.client.Get(st.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	total, seen := 0.0, false
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "repro_admission_shed_total{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("admission metrics line %q: %w", line, err)
		}
		total, seen = total+v, true
	}
	if !seen {
		return 0, fmt.Errorf("no repro_admission_shed_total in the edge's /metrics")
	}
	return total, nil
}

// noopHops times the gate and the router alone, each in front of a
// handler that does nothing, with a 1 KB body.
func (p *prober) noopHops() error {
	body := bytes.Repeat([]byte("x"), 1024)
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_ = json.NewEncoder(w).Encode(serve.HealthResponse{Status: "ok"})
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("ok"))
	})
	call := func(h http.Handler) {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		r.RemoteAddr = "127.0.0.1:9"
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	base := timeMS(p.e.sz.probeCalls*10, func() { call(noop) })

	pol, err := admission.ParsePolicy([]byte(admissionPolicy))
	if err != nil {
		return err
	}
	gate, err := admission.New(noop, pol, admission.Config{})
	if err != nil {
		return err
	}
	p.m["admission.gate_noop_us"] = (timeMS(p.e.sz.probeCalls*10, func() { call(gate) }) - base) * 1e3

	replica := httptest.NewServer(noop)
	defer replica.Close()
	rt, err := router.New(router.Config{Replicas: []router.ReplicaSpec{{ID: "noop", URL: replica.URL}}})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.ProbeNow()
	p.m["router.hop_noop_us"] = (timeMS(p.e.sz.probeCalls*10, func() { call(rt) }) - base) * 1e3
	return nil
}
