#!/usr/bin/env bash
# End-to-end smoke of the chaos-hardened runtime (make smoke-chaos, CI
# job smoke-chaos): train a 4-rank neighbour-padding model → assert the
# two halves of the DESIGN.md §11 contract plus the tracing surface:
#
#   1. order-preserving faults are invisible: a /v1/rollout under
#      seeded delay+jitter on every link streams a byte-identical body
#      to the fault-free rollout (same pinned X-Request-ID);
#   2. /metrics exports the request-latency histogram
#      and the access log names the request ID;
#   3. a cut link (partition) turns the rollout into a bounded,
#      attributed failure — the error record names the request ID, the
#      rank and the link, never a hang, never a frame;
#   4. the same two behaviours hold across real sockets: a 4-process
#      mpirun/infer job under delay chaos reproduces the clean rollout
#      table, and under a partition fails stop non-zero with the link
#      named.
#
# Run from anywhere: scripts/smoke_chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=smoke-chaos-out
SERVE_PID=""
cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$OUT"
}
trap cleanup EXIT
rm -rf "$OUT" && mkdir -p "$OUT"

go build -o "$OUT/serve" ./cmd/serve
go build -o "$OUT/infer" ./cmd/infer
go build -o "$OUT/mpirun" ./cmd/mpirun
go run ./cmd/datagen -n 24 -snapshots 30 -out "$OUT/data.gob"
# Neighbour padding so rollouts genuinely exchange halo strips — chaos
# on the links must have something to disturb.
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 \
	-strategy neighbor-pad -out "$OUT/ckpt" -model-name chaosdemo

start_serve() { # start_serve <logfile> [extra serve flags...]
	local logf=$1
	shift
	"$OUT/serve" -addr 127.0.0.1:0 -ckpt "$OUT/ckpt" -init "$OUT/data.gob" \
		"$@" >"$logf" 2>&1 &
	SERVE_PID=$!
	ADDR=""
	for _ in $(seq 1 100); do
		ADDR=$(awk '/^serving on /{print $3; exit}' "$logf")
		[ -n "$ADDR" ] && break
		kill -0 "$SERVE_PID" 2>/dev/null || { echo "server died:"; cat "$logf"; exit 1; }
		sleep 0.1
	done
	[ -n "$ADDR" ] || { echo "server did not come up:"; cat "$logf"; exit 1; }
	BASE="http://$ADDR"
}

stop_serve() {
	kill "$SERVE_PID" 2>/dev/null || true
	wait "$SERVE_PID" 2>/dev/null || true
	SERVE_PID=""
}

# 1. Fault-free golden rollout, request ID pinned so the body (which
# stamps request_id into every record) is comparable across servers.
start_serve "$OUT/serve_golden.log"
curl -fsS -H 'X-Request-ID: chaos-smoke' --max-time 120 \
	"$BASE/v1/rollout?steps=3" >"$OUT/golden.ndjson"
stop_serve
[ "$(wc -l <"$OUT/golden.ndjson")" -eq 3 ] || {
	echo "golden rollout did not stream 3 records:"; cat "$OUT/golden.ndjson"; exit 1; }

# The same rollout under seeded delay + jitter on every link: slower,
# byte-for-byte identical.
start_serve "$OUT/serve_delay.log" -access-log \
	-chaos 'delay:*>*:d=500us:p=0.5,jitter:*>*:d=1ms' -chaos-seed 7
curl -fsS -H 'X-Request-ID: chaos-smoke' --max-time 120 \
	"$BASE/v1/rollout?steps=3" >"$OUT/delay.ndjson"
cmp "$OUT/golden.ndjson" "$OUT/delay.ndjson" || {
	echo "rollout under delay/jitter chaos is not byte-identical"; exit 1; }
echo "smoke-chaos: delay+jitter rollout byte-identical to fault-free"

# 2. Histograms + tracing surface on the same live server.
curl -fsS "$BASE/metrics" >"$OUT/metrics.txt"
grep -q 'repro_model_request_latency_seconds_bucket{model="chaosdemo",le="0.0001"}' "$OUT/metrics.txt"
grep -q 'repro_model_request_latency_seconds_bucket{model="chaosdemo",le="+Inf"}' "$OUT/metrics.txt"
grep -q '^repro_model_request_latency_seconds_count{model="chaosdemo"} 1$' "$OUT/metrics.txt"
grep -q 'repro_model_request_latency_seconds_bucket{model="chaosdemo"' "$OUT/metrics.txt"
stop_serve
grep -q 'GET /v1/rollout status=200' "$OUT/serve_delay.log"
grep -q 'request=chaos-smoke' "$OUT/serve_delay.log"
grep -q 'rollout request=chaos-smoke .*comm_msgs=' "$OUT/serve_delay.log"
echo "smoke-chaos: /metrics histograms and access-log tracing present"

# 3. A cut link: the stream must end in one attributed error record,
# within the receive deadline — not hang, not fabricate frames.
start_serve "$OUT/serve_part.log" \
	-chaos 'partition:1>0' -chaos-recv-timeout 2s
curl -fsS -H 'X-Request-ID: chaos-part' --max-time 60 \
	"$BASE/v1/rollout?steps=3" >"$OUT/part.ndjson"
stop_serve
python3 - "$OUT/part.ndjson" <<'EOF'
import json, sys
recs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert recs, "partitioned rollout streamed nothing"
frames = [r for r in recs if not r.get("error")]
assert not frames, f"partitioned rollout still produced {len(frames)} frame(s)"
err = recs[-1]["error"]
for want in ("request=chaos-part", "rank 0", "link 1->0", "receive deadline"):
    assert want in err, f"error not attributed ({want!r} missing): {err}"
print("smoke-chaos: partition fail-stop attributed:", err.split(";")[0])
EOF

# 4. The same contract over real sockets: 4 OS processes via mpirun.
run_tcp() { # run_tcp <outfile> [extra infer flags...]
	local outf=$1
	shift
	"$OUT/mpirun" -quiet -n 4 -- "$OUT/infer" -data "$OUT/data.gob" \
		-ckpt "$OUT/ckpt" -steps 3 "$@" >"$outf" 2>&1
}
run_tcp "$OUT/tcp_clean.txt"
run_tcp "$OUT/tcp_delay.txt" \
	-chaos 'delay:*>*:d=500us:p=0.5,jitter:*>*:d=1ms' -chaos-seed 7
# Rank 0 prints the scored rollout table; lines within one rank stay
# ordered, so its output must match modulo the chaos banner.
grep '^\[rank 0\]' "$OUT/tcp_clean.txt" | grep -v 'chaos:' >"$OUT/tcp_clean_r0.txt"
grep '^\[rank 0\]' "$OUT/tcp_delay.txt" | grep -v 'chaos:' >"$OUT/tcp_delay_r0.txt"
diff -u "$OUT/tcp_clean_r0.txt" "$OUT/tcp_delay_r0.txt" || {
	echo "tcp rollout under delay chaos diverged from the clean run"; exit 1; }
echo "smoke-chaos: tcp rollout under delay chaos bit-identical"

if timeout 60 "$OUT/mpirun" -quiet -n 4 -- "$OUT/infer" -data "$OUT/data.gob" \
	-ckpt "$OUT/ckpt" -steps 3 -chaos 'partition:1>0' \
	-chaos-recv-timeout 2s >"$OUT/tcp_part.txt" 2>&1; then
	echo "partitioned tcp job exited zero:"; cat "$OUT/tcp_part.txt"; exit 1
fi
grep -q 'link 1->0' "$OUT/tcp_part.txt" || {
	echo "tcp fail-stop not attributed to the cut link:"; cat "$OUT/tcp_part.txt"; exit 1; }
echo "smoke-chaos: tcp partition fail-stop attributed, job torn down"

echo "smoke-chaos: OK"
