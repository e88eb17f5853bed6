#!/usr/bin/env bash
# Regenerates BENCH_baseline.json: the committed perf-trajectory
# snapshot of the convolution engine (the Workers sweep of the forward
# pass), the per-layer Table-I costs, the serving API's
# concurrent-session rollout throughput (1 vs 4 sessions over one
# Engine; the steps_per_s metric), the rollout per transport
# (RolloutTransport/{mem,tcp} steps/s),
# the micro-batched serving throughput (unbatched Predict vs
# Batcher at batch 1/4/8/16; requests_per_s), the f64-vs-f32 session
# rollout (PrecisionRollout; speedup_vs_f64), the fused zero-alloc
# f32 steady state (SteadyStateRollout; allocs_per_op pinned at 0), and
# the HTTP predict path's tensor codec against encoding/json on the
# 4×128×128 body (PredictCodec; requests_per_s, allocs_per_op).
# Run from anywhere:
#
#   scripts/bench.sh                # writes BENCH_baseline.json
#   scripts/bench.sh out.json      # writes elsewhere
#
# BENCHTIME (default 10x) and BENCH (default the conv + session +
# rollout benchmarks) override the sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_baseline.json}"
BENCH="${BENCH:-ConvGEMMWorkers|Table1_LayerForwardBackward|SessionConcurrentRollout|RolloutTransport|BatcherThroughput|PrecisionRollout|SteadyStateRollout|PredictCodec}"
BENCHTIME="${BENCHTIME:-10x}"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -timeout 30m . | tee "$RAW"

CPU="$(awk -F': ' '/^cpu:/{print $2; exit}' "$RAW")"
[ -n "$CPU" ] || CPU="unknown"

# The -N suffix on benchmark names is the GOMAXPROCS the run actually
# used; record it so benchdiff can tell a scaling-capable baseline
# from a serialized one. The testing package omits the suffix entirely
# when GOMAXPROCS is 1, so no suffix means a serialized run.
GMP="$(awk '/^Benchmark/{ if (match($1, /-[0-9]+$/)) { print substr($1, RSTART+1); exit } }' "$RAW")"
[ -n "$GMP" ] || GMP=1

{
	echo "{"
	echo "  \"generated\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
	echo "  \"go\": \"$(go version | awk '{print $3}')\","
	echo "  \"cpu\": \"$CPU\","
	echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0),"
	echo "  \"gomaxprocs\": $GMP,"
	echo "  \"command\": \"go test -run ^\$ -bench '$BENCH' -benchtime $BENCHTIME -benchmem .\","
	echo "  \"benchmarks\": ["
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
			printf "%s    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", sep, name, $2
			sep = ",\n"
			msep = ""
			for (i = 3; i + 1 <= NF; i += 2) {
				unit = $(i + 1)
				gsub(/\//, "_per_", unit)
				gsub(/[^A-Za-z0-9_]/, "_", unit)
				printf "%s\"%s\": %s", msep, unit, $i
				msep = ", "
			}
			printf "}}"
		}
		END { print "" }
	' "$RAW"
	echo "  ]"
	echo "}"
} >"$OUT"

echo "wrote $OUT"
