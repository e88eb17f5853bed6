# Single source of truth for the build/verify commands: CI
# (.github/workflows/ci.yml, nightly.yml) and humans run the identical
# targets.
#
# Toolchain: Go 1.24 — pinned identically in go.mod, every ci.yml job
# and the go version recorded in BENCH_baseline.json, so benchdiff
# deltas never measure a toolchain drift.
#
# Static analysis: `make lint` runs go vet plus cmd/repolint, the
# repo's own invariant analyzers (DESIGN.md §12); staticcheck joins in
# when installed (CI always installs it). `make fuzz-smoke` gives each
# native fuzz target a short budget; `make race-stress` is the nightly
# shuffled -race soak.

GO ?= go

# Per-target budget for fuzz-smoke; CI keeps the default.
FUZZTIME ?= 30s

.PHONY: build test vet fmt race race-predict bench bench-smoke bench-check bench-run-smoke bench-baseline bench-compare smoke smoke-tcp smoke-serve smoke-swap smoke-cluster smoke-admission lint fuzz-smoke race-stress ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# Every Predict writes into the buffers of a pooled clone set, and
# concurrent callers each take their own: run the predict tests (and
# the bench-only Batcher shim's) repeatedly under the race detector on
# one and on two processors.
race-predict:
	$(GO) test -race -cpu 1,2 -count=20 -run 'Batcher|Predict' ./internal/core

# Full benchmark sweep (regenerates every paper exhibit; slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m .

# One iteration of every benchmark: proves the harness stays runnable
# without paying for statistically meaningful numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 30m .

# The end-to-end benchmark is a frozen module of its own (bench/go.mod),
# outside ./...: vet and test it against this tree so that deleting an
# internal API it calls fails here instead of in the benchmark driver.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# bench-check runs bench/'s tests at their 32² short sizes only. This
# runs the benchmark itself the way its driver does — all four workloads
# at full size (128², real set-up: simulate, train 2×2, save, open,
# warm up) with a 2 s timed phase each — and exits non-zero on a build
# failure, a set-up failure ("training diverged") or any failed op, so
# a bug that only shows at full size fails here, not in the driver.
bench-run-smoke:
	bash bench/run.sh --seconds 2

# End-to-end smoke of the user-facing entrypoints: the quickstart
# example (train + serve in-process) and the datagen → train → infer
# CLI pipeline with a 3-step streaming inference session. Small inputs
# keep this to a couple of minutes; it proves the binaries, checkpoint
# format, and Engine/Session serving path work together, which unit
# tests cannot.
smoke:
	$(GO) run ./examples/quickstart
	rm -rf smoke-out && mkdir -p smoke-out
	$(GO) run ./cmd/datagen -n 24 -snapshots 30 -out smoke-out/data.gob
	$(GO) run ./cmd/train -data smoke-out/data.gob -ranks 4 -epochs 2 -out smoke-out/ckpt
	$(GO) run ./cmd/infer -data smoke-out/data.gob -ckpt smoke-out/ckpt -steps 3
	rm -rf smoke-out

# Multi-process smoke: the same datagen → train → infer pipeline, but
# as 4 real OS processes per step assembled into one mpi world over
# localhost TCP by cmd/mpirun (DESIGN.md §8). Training uses the
# neighbour-padding strategy so inference genuinely exchanges halo
# strips over sockets (mem-vs-TCP bit-identity is asserted in Go:
# core.TestPredictIsSessionStep1).
smoke-tcp:
	rm -rf smoke-tcp-out && mkdir -p smoke-tcp-out
	$(GO) build -o smoke-tcp-out/train ./cmd/train
	$(GO) build -o smoke-tcp-out/infer ./cmd/infer
	$(GO) build -o smoke-tcp-out/mpirun ./cmd/mpirun
	$(GO) run ./cmd/datagen -n 24 -snapshots 30 -out smoke-tcp-out/data.gob
	smoke-tcp-out/mpirun -n 4 -- smoke-tcp-out/train -data smoke-tcp-out/data.gob \
		-ranks 4 -epochs 2 -strategy neighbor-pad -out smoke-tcp-out/ckpt
	smoke-tcp-out/mpirun -n 4 -- smoke-tcp-out/infer -data smoke-tcp-out/data.gob \
		-ckpt smoke-tcp-out/ckpt -steps 3
	rm -rf smoke-tcp-out

# HTTP serving smoke: datagen → train → start cmd/serve, then curl
# /healthz, a 3-step streamed /v1/rollout and /v1/predict (sequential
# and 8-way concurrent), asserting golden
# bit-identity between the predict response and the rollout's next
# frame, and a graceful SIGTERM drain (scripts/smoke_serve.sh).
smoke-serve:
	scripts/smoke_serve.sh

# Hot-swap smoke: train two models as versioned artifacts, serve the
# first, drive sustained concurrent /v2 predict load, atomically swap
# to the second mid-load, and assert zero failed requests, no
# mixed-version responses, post-swap outputs bit-matching the new
# model, and a clean SIGTERM drain (scripts/smoke_swap.sh).
smoke-swap:
	scripts/smoke_swap.sh

# Cluster smoke: 3 replica cmd/serve processes + 1 warm standby behind
# cmd/router, sustained concurrent load, a rolling hot-swap and a
# kill -9 of one replica both mid-load, then standby promotion —
# asserting zero failed client requests, responses bit-identical to a
# single-replica golden run, rolling-swap capacity never below N−1
# (from the router's own metrics), and graceful drains
# (scripts/smoke_cluster.sh, DESIGN.md §14).
smoke-cluster:
	scripts/smoke_cluster.sh

# Compare a fresh benchmark run against the committed baseline and
# fail on throughput or allocation regressions (scripts/bench_compare.sh,
# cmd/benchdiff). BENCH/BENCHTIME narrow the sweep.
bench-compare:
	scripts/bench_compare.sh

# Blocking static analysis: go vet, then the repo's own invariant
# analyzers (errwrap, ctxflow, goroutinelife, detpath, closecheck,
# reach — DESIGN.md §12). staticcheck is guarded because the dev container has
# no network to install it; CI always installs and runs it, so the
# guard relaxes laptops, never the gate.
lint: vet
	$(GO) run ./cmd/repolint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks all,-ST1000,-ST1003 ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

# Native fuzz targets as package:target pairs (internal/mpi: the
# wire-frame codec; internal/admission: the policy parser behind POST
# /v2/admin/policy and the LPM trie vs its linear-scan oracle;
# internal/serve: the predict/rollout tensor codec vs encoding/json,
# decoder, float formatter and float parser vs strconv.ParseFloat;
# internal/model: the artifact manifest reader behind cmd/serve
# start-up and POST /v2/admin/load), FUZZTIME each.
# `go test -fuzz` accepts exactly one target per invocation, hence the
# loop.
FUZZ_TARGETS = \
	./internal/mpi:FuzzTCPFrameRoundTrip \
	./internal/mpi:FuzzTCPReadFrameHostile \
	./internal/admission:FuzzPolicyParse \
	./internal/admission:FuzzTrieLookup \
	./internal/serve:FuzzPredictBody \
	./internal/serve:FuzzAppendFloat \
	./internal/serve:FuzzScanFloat \
	./internal/model:FuzzManifest

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg="$${t%%:*}"; tgt="$${t##*:}"; \
		echo "fuzz-smoke: $$pkg $$tgt ($(FUZZTIME))"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$tgt$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Nightly race soak: three shuffled -race repetitions of the internal
# packages, so order-dependent races that a single -race pass misses
# still surface (.github/workflows/nightly.yml).
race-stress:
	$(GO) test -race -count=3 -shuffle=on ./internal/...

# Admission smoke: cmd/serve behind an enforced policy under a
# saturating burst — every request gets exactly one typed outcome
# (200 / 429 rate_limited / 503 overloaded), gold-class traffic is
# never shed before bulk, successful responses stay bit-identical to a
# no-admission golden run, and a mid-load hot reload flips a denied
# CIDR to allowed without dropping anything
# (scripts/smoke_admission.sh, DESIGN.md §15).
smoke-admission:
	scripts/smoke_admission.sh

ci: build fmt lint test race race-predict bench-smoke bench-check bench-run-smoke fuzz-smoke smoke smoke-tcp smoke-serve smoke-swap smoke-cluster smoke-admission
