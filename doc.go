// Package repro is a from-scratch Go reproduction of "Parallel Machine
// Learning of Partial Differential Equations" (Totounferoush, Ebrahimi
// Pour, Roller, Mehl — PDSEC/IPDPS 2021, arXiv:2103.01869).
//
// The paper's contribution — communication-free parallel training of
// per-subdomain CNN surrogates for PDE solvers, with point-to-point
// halo exchange at inference time — lives in internal/core, behind a
// session-oriented serving API (DESIGN.md §7): core.Trainer is the
// single cancellable training entrypoint (paper scheme, sequential
// reference, and the data-parallel baseline as options, with progress
// callbacks), and core.Engine wraps a trained ensemble for concurrent
// serving. Any number of streaming rollout Sessions and one-shot
// Predict calls run at once over weight-sharing model clones
// (nn.Sequential.CloneShared), each cancellable mid-flight and O(1) in
// memory regardless of rollout depth. Validation failures carry the
// named errors core.ErrBadWindow / core.ErrShapeMismatch for
// errors.Is branching.
//
// Predict is not batched (DESIGN.md §9): each call runs, on its own
// pooled clone set, the per-rank forward a session step runs, so
// concurrent callers compute in parallel and each result is
// bit-identical to step 1 of a session. Concurrency is bounded at the
// edge, by the admission gate's concurrency budget.
//
// Trained models ship as versioned artifacts and serve through a
// registry (DESIGN.md §10). An artifact is one directory per model
// version: manifest.json (format version, model name/version,
// partition + window + architecture metadata, per-rank SHA-256
// digests) plus the per-rank weight payloads, written atomically —
// temp dir + rename, fsync'd payloads with checked Close — so a
// crash or full disk never leaves a half-written model
// (model.WriteArtifact, core.SaveModel; core.OpenModel digest-checks
// every payload before deserializing weights, still reads legacy
// bare rank<N>.gob directories, and model.Migrate / `inspect -ckpt
// dir -migrate` upgrades them in place). core.Registry maps model
// name → refcounted engine Handle with Load/Get/Swap/Unload/Close:
// Swap atomically replaces the published version — new Gets see the
// new engine immediately while in-flight Predict calls and open
// Sessions finish on the old one, which drains (closes Drained) only
// when its last reference is released.
// Registry errors are named too: core.ErrModelNotFound,
// core.ErrModelExists, core.ErrRegistryClosed.
//
// cmd/serve exposes the whole surface over HTTP: the /v1 routes —
// POST /v1/predict (JSON or gob tensors) and GET|POST /v1/rollout
// (chunked streaming of session frames) — delegate to the default
// model unchanged, while /v2 adds the multi-model surface: GET
// /v2/models, per-model /v2/models/{name}/predict|rollout, POST
// /v2/admin/load|swap|unload for zero-downtime rollouts from artifact
// directories, structured JSON error envelopes, /metrics counters
// (per-model requests, swap count, request latency) and a /healthz that reports per-model readiness. JSON
// tensors cross the wire through a purpose-built codec (DESIGN.md §9:
// its own one-pass float formatter and parser, byte-identical to
// encoding/json; strconv is their fallback, and strconv and
// encoding/json are the fuzz oracles) in pooled, Content-Length-sized
// bodies that the router's replay buffer shares. Graceful
// drain on SIGTERM; internal/serve holds the handler plus the typed
// Client, scripts/loadtest.sh drives throughput, and
// scripts/smoke_swap.sh proves a mid-load hot swap drops zero
// requests. See the package examples (Example_enginePredict,
// Example_concurrentPredict, Example_httpClient, Example_registryHotSwap) for
// runnable end-to-end snippets.
//
// Above the single process sits cluster serving (DESIGN.md §14):
// cmd/router (internal/router) fronts N replica cmd/serve processes
// with a health-probed replica table (each replica's /healthz reports
// ok/degraded/draining plus its default model version and in-flight
// count; failed probes back off exponentially), least-loaded routing
// for predict and rendezvous-hash session pinning for streaming
// rollouts, and retry-once on connect failure — non-streaming
// responses are buffered before committing, so a replica dying
// mid-response replays invisibly on another replica while the dead
// one is marked down at once. POST /v2/admin/swap on the router rolls
// a deploy across the fleet one replica at a time, waiting for each
// replica's healthz to converge on the new version, so capacity never
// drops below N−1 (recorded as repro_router_swap_min_routable); warm
// standby replicas are probed but unrouted until /v2/admin/promote.
// `make smoke-cluster` proves the contract: kill -9 one replica under
// sustained load and every client request still succeeds,
// bit-identical to a single-replica golden run.
//
// Ahead of the engine sits edge admission control (DESIGN.md §15),
// which also bounds how many predicts and rollouts run at once.
// internal/admission wraps the front door of both cmd/serve and
// cmd/router (-policy, off by default) with three stages: CIDR
// allow/deny/classify via a longest-prefix-match trie over client IPs
// (IPv4 + IPv6, fuzzed against a linear-scan oracle), per-client
// token buckets keyed by identity header else IP, and priority
// classes with bounded deadline-aware queues that shed the lowest
// class first — a high-class arrival displaces the newest low-class
// waiter rather than being refused. Rejections are typed 403/429/503
// envelopes with Retry-After; per-class shed counters and a shed-wait
// histogram export on /metrics; the policy hot-reloads whole via
// POST /v2/admin/policy or SIGHUP with zero drops (running requests
// and bucket balances persist across the swap). cmd/policyc compiles
// and summarizes a policy file offline, so it can be checked before a
// deploy.
// `make smoke-admission` saturates a one-slot policy and asserts
// every request gets exactly one typed outcome, gold-class traffic is
// never shed while bulk waits, and served bodies stay bit-identical
// to a no-admission golden run.
//
// A blocked step is bounded by its caller's context, and the serving
// path is traced end to end (DESIGN.md §11). Session.Step closes the
// session's world when its context ends, and mpi.World.Run closes the
// world when a rank panics, so a partition, a hung peer or a crashed
// rank ends the step at once with an error naming the rank and the
// (from, tag) it waited on — never a hang. Fault injection is a test
// fixture, internal/mpi/mpitest (delay, jitter, partition and crash
// rules around any transport): its tests assert that order-keeping
// faults leave rollout frames bit-identical and that the two others
// fail stop within the step's deadline, in-process and over loopback
// TCP. Every HTTP request carries an X-Request-ID (minted or honored,
// echoed back, stamped into predict and session errors via
// core.ContextWithRequestID), so a failed request names its ID, the
// rank and the (from, tag) in one string; per-model request-latency
// histograms (internal/stats.Histogram, fixed log-spaced buckets)
// export on /metrics in the Prometheus histogram format, and perf
// regressions are gated by cmd/benchdiff against BENCH_baseline.json
// (make bench-compare).
//
// Inference has two compute widths (DESIGN.md §13). Float64 is the
// default and carries every bit-identity guarantee; core.WithPrecision
// (nn.F32) opts an Engine into the float32 path — float64 master
// weights narrowed and panel-packed once per Engine, AVX-512/AVX2 f32
// GEMM and shifted-band kernels in between, one widening at the
// output — for faster rollouts within a documented error budget
// (EXPERIMENTS.md; the speedup is BenchmarkPrecisionRollout's
// speedup_vs_f64 in BENCH_baseline.json). The fused steady state
// allocates nothing per step, and the f32 path keeps its own
// determinism: bit-identical across batch sizes, transports and
// reruns (cmd/serve, cmd/infer and cmd/train take
// -precision f64|f32). The float32 path is forward-only — training is
// always float64 — and both widths run one arena-resident layer chain
// over the same generic shifted-band kernels (DESIGN.md §3): there is
// one convolution engine, and the nested-loop reference it is checked
// against is compiled only into the tests.
//
// The message-passing runtime is transport-agnostic (DESIGN.md §8):
// the same World/Comm semantics (non-overtaking tagged p2p,
// collectives, Cartesian topology, CommStats + virtual network-cost
// accounting) run over in-process channels (mpi.NewWorld) or over
// length-prefixed TCP framing between independently launched
// processes (mpi.DialTCP; cmd/mpirun is the local rank launcher), so
// ranks can genuinely live in separate OS processes — cmd/train and
// cmd/infer take -transport tcp. A rollout step is Predict's forward
// per rank followed by one blocking two-phase halo exchange; frames are
// bit-identical across {mem, tcp}. Every substrate the scheme needs is
// implemented in this module:
//
//   - internal/tensor — dense float64 N-d tensors and the convolution
//     kernels (shifted products over padded bands, with AVX2/AVX-512
//     FMA assembly on amd64 and a portable fallback)
//   - internal/nn     — CNN layers with hand-derived backprop and a
//     native batch axis (batched outputs bit-identical per image), a
//     fast-path/slow-path engine switch (DESIGN.md §3, pinnable
//     per-network for serving), reusable scratch arenas and
//     weight-sharing clones for concurrent inference
//   - internal/serve  — HTTP serving front end (predict + streaming
//     rollout handlers, /v2 registry surface + admin hot swap, typed
//     client) over Engine/Registry (§9–§10)
//   - internal/opt    — SGD / momentum / RMSProp / ADAM (paper Eq. 3–6)
//   - internal/loss   — MSE / MAE / MAPE (paper Eq. 7) / SMAPE / Huber
//   - internal/mpi    — message-passing runtime with MPI semantics
//     (p2p, collectives, Cartesian topology, network model) over
//     pluggable transports: in-process channels or TCP sockets
//     (DESIGN.md §8)
//   - internal/grid, internal/euler — the linearized Euler solver
//     standing in for Ateles (paper Eq. 8, §IV-A)
//   - internal/decomp — the Fig. 2 domain decomposition
//   - internal/dataset, internal/model, internal/stats — data pipeline,
//     Table-I network builder, versioned model artifacts (§10),
//     evaluation metrics and lock-free latency histograms (§11)
//   - internal/autodiff — scalar reverse-mode AD, the oracle that
//     cross-validates every hand-written backward pass
//   - internal/viz — ASCII/PGM/PPM field rendering
//
// Six invariants are enforced statically (DESIGN.md
// §12): internal/analysis implements repo-specific analyzers —
// errwrap (sentinels matched via errors.Is/As and wrapped with %w),
// ctxflow (a received context is never replaced by a fresh root),
// goroutinelife (every go statement in the runtime packages has a
// visible WaitGroup/close lifecycle), detpath (no wall clock, global
// RNG, or map iteration in the bit-deterministic packages),
// closecheck (write-mode Close errors are checked), and reach (every
// package-level symbol is reachable from a main or the bench/ module;
// what only tests use lives in _test.go files) — compiled into
// cmd/repolint, runnable standalone (`go run ./cmd/repolint ./...`)
// or as `go vet -vettool`, gated by `make lint`, and re-asserted by a
// tier-1 clean-tree test. Violations are suppressed only line-by-line
// via `//repolint:allow <analyzer> -- <reason>`. The TCP frame codec,
// the admission policy parser, the LPM trie, the
// tensor codec and the artifact manifest reader additionally carry
// native fuzz targets (`make fuzz-smoke`; extended
// nightly with `make race-stress`).
//
// The benchmark harness in bench_test.go regenerates every table and
// figure of the paper's evaluation plus the serving exhibits
// (BenchmarkPredictThroughput, BenchmarkSessionConcurrentRollout);
// see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
