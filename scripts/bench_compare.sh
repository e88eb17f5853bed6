#!/usr/bin/env bash
# Bench-regression gate (make bench-compare, CI job bench-regression):
# run the benchmark sweep fresh and diff it against the committed
# BENCH_baseline.json with cmd/benchdiff. Exits non-zero when
# throughput (steps_per_s / requests_per_s) drops more than 15% or
# allocs_per_op grows more than 10% on any gated benchmark.
#
#   scripts/bench_compare.sh              # full committed sweep
#   BENCH=PredictThroughput scripts/bench_compare.sh   # narrow it
#
# BENCH/BENCHTIME pass through to scripts/bench.sh. The candidate
# snapshot lands in bench-compare-out/ for inspection on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=bench-compare-out
rm -rf "$OUT" && mkdir -p "$OUT"

scripts/bench.sh "$OUT/candidate.json"
go run ./cmd/benchdiff -baseline BENCH_baseline.json -candidate "$OUT/candidate.json" "$@"
rm -rf "$OUT"
