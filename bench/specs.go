package main

import (
	"encoding/json"
	"fmt"
)

// This file is the one place metrics and workloads are declared.
// BENCHMARK.json at the root of the repository is `-describe` written
// to a file; the tests fail if the two differ.

const runSeconds = 12

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloadSpecs = []workloadSpec{
	{"train_p4", "the paper's headline, communication-free 2x2 per-subdomain training: f64 forward+backward, Adam, MAPE; no mpi, no HTTP"},
	{"rollout_p4", "streaming 2x2 rollout on the fast path: f32 fused forward, halo exchange, gather; the kernels used the other way from training"},
	{"predict_engine", "one-step f64 Engine.Predict with the HTTP tiers bypassed: the control that an HTTP-tier change must not move"},
	{"predict_http", "POST /v1/predict through admission, router, loopback and serve: JSON codec and proxying dominate, compute does not"},
}

var e2eSpecs = []e2eSpec{
	{"ops_per_s", "1/s", "higher", 0.15},
	{"op_p50_ms", "ms", "lower", 0.15},
	{"rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// layerSpecs lists the per-layer metrics by module. Times are lower
// better; so are bytes, allocations and shares of time not spent
// computing.
var layerSpecs = func() []layerSpec {
	var out []layerSpec
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerSpec{n, unit, better})
		}
	}
	add("lower", "ms", "tensor.gemm_nn_f64_ms", "tensor.gemm_tn_f64_ms", "tensor.gemm_nt_f64_ms", "tensor.gemm_nn_f32_ms",
		"tensor.im2col_f64_ms", "tensor.col2im_f64_ms", "tensor.im2col_f32_ms", "tensor.directconv32_ms")
	add("lower", "count", "tensor.gemm_flops_per_call", "tensor.im2col_bytes_per_call")
	for _, kind := range []string{"fwd_f64", "fwdbwd_f64", "fwd_f32"} {
		for l := 1; l <= 4; l++ {
			add("lower", "ms", fmt.Sprintf("nn.conv%d_%s_ms", l, kind))
		}
	}
	add("lower", "ms", "nn.net_fwd_f64_ms", "nn.net_fwdbwd_f64_ms", "nn.net_fwdinto_f32_ms")
	add("lower", "count", "nn.net_fwd_f64_allocs", "nn.net_fwdinto_f32_allocs")
	add("lower", "ms", "opt.adam_step_ms", "loss.mape_fwdbwd_ms")

	add("lower", "ms", "core.trainer.rank_epoch_ms")
	add("lower", "s", "core.trainer.crit_path_s", "core.trainer.total_compute_s")
	add("higher", "ratio", "core.trainer.speedup_p4")
	add("lower", "ratio", "core.trainer.overhead_share")
	add("lower", "count", "core.trainer.comm_bytes", "core.trainer.allocs_per_rank_epoch")
	add("lower", "loss", "core.trainer.final_loss")

	add("lower", "ms", "core.session.step_ms", "core.session.new_session_ms", "core.session.blocking_step_ms",
		"core.session.f64_step_ms", "core.session.step_ms_nproc")
	add("lower", "count", "core.session.allocs_per_step", "core.session.f64_allocs_per_step",
		"core.session.halo_bytes_per_step", "core.session.halo_msgs_per_step", "core.session.gather_bytes_per_step")
	add("lower", "ratio", "core.session.noncompute_share")
	add("lower", "us", "mpi.mem_sendrecv_halo_us", "mpi.tcp_sendrecv_halo_us", "mpi.gather_frame_us")

	add("lower", "ms", "core.engine.predict_ms", "core.engine.open_ms", "core.batcher.predict_ms", "core.batcher.overhead_ms",
		"model.write_artifact_ms", "model.open_artifact_ms")
	add("lower", "MB", "core.engine.predict_alloc_mb")
	add("lower", "count", "core.engine.predict_allocs")
	add("higher", "ratio", "core.batcher.mean_fill")

	add("lower", "ms", "serve.json_encode_ms", "serve.json_decode_ms", "serve.gob_encode_ms", "serve.gob_decode_ms")
	add("lower", "count", "serve.request_bytes", "serve.response_bytes")
	add("lower", "ms", "stage.client_ms", "stage.admission_ms", "stage.router_ms", "stage.serve_ms", "stage.engine_ms")
	add("higher", "ratio", "stage.closure")
	add("lower", "ms", "serve.predict_gob_ms", "serve.rollout_frame_ms")
	add("lower", "us", "admission.gate_noop_us", "router.hop_noop_us")
	add("lower", "count", "admission.shed", "router.retries")
	add("lower", "MB", "serve.alloc_mb_per_req")
	add("higher", "ratio", "serve.batch_fill")

	add("lower", "ms", "euler.step_ms", "decomp.scatter_ms")
	add("lower", "s", "dataset.generate_s")

	add("lower", "ms", "e2e.op_p90_ms", "e2e.op_p99_ms", "e2e.cpu_ms_per_op", "host.calib_ms")
	add("lower", "MB", "e2e.alloc_mb_per_op")
	add("lower", "count", "e2e.allocs_per_op", "e2e.gc_per_op")
	add("lower", "ratio", "e2e.block_spread", "e2e.trace_overhead")
	return out
}()

// benchmarkFile is BENCHMARK.json in the driver's schema.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// describe renders BENCHMARK.json.
func describe() string {
	out, err := json.MarshalIndent(benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   e2eSpecs,
		PerLayer:   layerSpecs,
	}, "", "  ")
	if err != nil {
		panic(err) // the specs are plain structs of strings and numbers
	}
	return string(out) + "\n"
}
