#!/usr/bin/env bash
# End-to-end smoke of the HTTP serving stack (make smoke-serve, CI job
# smoke-serve): datagen → train → start cmd/serve → exercise the API
# with curl and assert golden self-consistency:
#
#   1. GET /v1/rollout?steps=3 streams exactly 3 frames of the right
#      shape (chunked JSON lines from a streaming Session);
#   2. POST /v1/predict on rollout frame 1 reproduces rollout frame 2
#      BIT FOR BIT — the halo exchange inside the session must deliver
#      exactly what Predict's direct slicing reads, end to end through
#      JSON encode/decode;
#   3. the same predict twice is bit-identical;
#   4. 8 concurrent predicts all succeed (pooled clone sets under real
#      HTTP);
#   5. SIGTERM drains gracefully (exit 0, predict count printed).
#
# Run from anywhere: scripts/smoke_serve.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=smoke-serve-out
SERVE_PID=""
cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$OUT"
}
trap cleanup EXIT
rm -rf "$OUT" && mkdir -p "$OUT"

go build -o "$OUT/serve" ./cmd/serve
go run ./cmd/datagen -n 24 -snapshots 30 -out "$OUT/data.gob"
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 -out "$OUT/ckpt"

"$OUT/serve" -addr 127.0.0.1:0 -ckpt "$OUT/ckpt" -init "$OUT/data.gob" >"$OUT/serve.log" 2>&1 &
SERVE_PID=$!

ADDR=""
for _ in $(seq 1 100); do
	ADDR=$(awk '/^serving on /{print $3; exit}' "$OUT/serve.log")
	[ -n "$ADDR" ] && break
	kill -0 "$SERVE_PID" 2>/dev/null || { echo "server died:"; cat "$OUT/serve.log"; exit 1; }
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "server did not come up:"; cat "$OUT/serve.log"; exit 1; }
BASE="http://$ADDR"
echo "smoke-serve: server at $BASE"

curl -fsS "$BASE/healthz" | grep -q ok

# 1. Stream a 3-step rollout from the server-side initial state.
curl -fsS "$BASE/v1/rollout?steps=3" >"$OUT/rollout.ndjson"

# Build the predict request (frame 1 as history) and remember frame 2.
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
frames = [json.loads(l) for l in open(out + "/rollout.ndjson") if l.strip()]
assert len(frames) == 3, f"expected 3 rollout frames, got {len(frames)}"
for f in frames:
    assert "error" not in f or not f["error"], f
    assert f["frame"]["shape"] == [4, 24, 24], f["frame"]["shape"]
json.dump({"states": [frames[0]["frame"]]}, open(out + "/predict_req.json", "w"))
json.dump(frames[1]["frame"], open(out + "/rollout_frame2.json", "w"))
EOF

# 2 + 3. Predict from frame 1, twice.
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/predict_req.json" "$BASE/v1/predict" >"$OUT/predict1.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/predict_req.json" "$BASE/v1/predict" >"$OUT/predict2.json"

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
p1 = json.load(open(out + "/predict1.json"))
p2 = json.load(open(out + "/predict2.json"))
f2 = json.load(open(out + "/rollout_frame2.json"))
assert p1 == p2, "two identical predicts disagreed"
assert p1["shape"] == f2["shape"] == [4, 24, 24]
assert p1["data"] == f2["data"], "predict(frame1) != rollout frame 2 (golden bit-identity broken)"
print("smoke-serve: golden predict/rollout bit-identity holds")
EOF

# 4. Concurrent predicts. (Wait on the curl
# PIDs only — a bare `wait` would also wait on the server.)
CURL_PIDS=()
for i in $(seq 1 8); do
	curl -fsS -X POST -H 'Content-Type: application/json' \
		--data-binary @"$OUT/predict_req.json" "$BASE/v1/predict" >"$OUT/conc_$i.json" &
	CURL_PIDS+=("$!")
done
wait "${CURL_PIDS[@]}"
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
ref = json.load(open(out + "/predict1.json"))
for i in range(1, 9):
    got = json.load(open(f"{out}/conc_{i}.json"))
    assert got == ref, f"concurrent predict {i} differs"
print("smoke-serve: 8 concurrent predicts bit-identical")
EOF

# 5. Graceful drain on SIGTERM.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
	kill -0 "$SERVE_PID" 2>/dev/null || break
	sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
	echo "server ignored SIGTERM:"; cat "$OUT/serve.log"; exit 1
fi
wait "$SERVE_PID" || { echo "server exited non-zero:"; cat "$OUT/serve.log"; exit 1; }
SERVE_PID=""
grep -q "served .* predictions" "$OUT/serve.log" || {
	echo "drain stats missing:"; cat "$OUT/serve.log"; exit 1; }
echo "smoke-serve: OK"
