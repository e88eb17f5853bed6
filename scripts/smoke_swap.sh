#!/usr/bin/env bash
# End-to-end smoke of zero-downtime hot swap (make smoke-swap, CI job
# smoke-swap): train two different models → serve the first → drive
# sustained concurrent /v2 predict load → hot-swap to the second model
# MID-LOAD → assert:
#
#   1. the artifact manifests verify (inspect -ckpt);
#   2. zero failed requests across the whole run — a swap is invisible
#      to in-flight and queued traffic;
#   3. every response bit-matches exactly one of the two versions
#      (never a mix), and post-swap traffic serves the NEW model
#      (bit-identical to the new artifact served standalone);
#   4. /healthz reports the new version, /metrics counts the swap;
#   5. SIGTERM still drains gracefully.
#
# Run from anywhere: scripts/smoke_swap.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=smoke-swap-out
SERVE_PID=""
LOAD_PIDS=()
cleanup() {
	touch "$OUT/stop" 2>/dev/null || true
	for p in "${LOAD_PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$OUT"
}
trap cleanup EXIT
rm -rf "$OUT" && mkdir -p "$OUT"

go build -o "$OUT/serve" ./cmd/serve
go run ./cmd/datagen -n 24 -snapshots 30 -out "$OUT/data.gob"
# Two genuinely different models: same architecture, different seeds.
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 -seed 1 \
	-out "$OUT/ckptA" -model-name demo -model-version vA
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 -seed 2 \
	-out "$OUT/ckptB" -model-name demo -model-version vB

# 1. The artifacts carry verifying manifests. (Write to a file first:
# grep -q would close the pipe early and trip pipefail via SIGPIPE.)
go run ./cmd/inspect -ckpt "$OUT/ckptA" >"$OUT/inspectA.txt"
grep -q "all payload digests verified" "$OUT/inspectA.txt"
go run ./cmd/inspect -ckpt "$OUT/ckptB" >"$OUT/inspectB.txt"
grep -q "all payload digests verified" "$OUT/inspectB.txt"
echo "smoke-swap: artifact digests verified"

"$OUT/serve" -addr 127.0.0.1:0 -ckpt "$OUT/ckptA" -init "$OUT/data.gob" >"$OUT/serve.log" 2>&1 &
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
echo "smoke-swap: server at $BASE (model demo@vA)"

curl -fsS "$BASE/healthz" | grep -q '"status":"ok"'
curl -fsS "$BASE/healthz" | grep -q '"version":"vA"'

# Build the predict request from the model's own first rollout frame.
curl -fsS "$BASE/v2/models/demo/rollout?steps=1" >"$OUT/frame.ndjson"
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
f = json.loads(open(out + "/frame.ndjson").readline())
assert not f.get("error"), f
json.dump({"states": [f["frame"]]}, open(out + "/req.json", "w"))
EOF

# Golden outputs per version: vA is live; vB is loaded side by side
# under its own name (same registry, zero interference with demo).
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/req.json" "$BASE/v2/models/demo/predict" >"$OUT/goldenA.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary '{"name":"goldenb","dir":"'"$OUT"'/ckptB"}' "$BASE/v2/admin/load" \
	| grep -q '"name":"goldenb"'
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/req.json" "$BASE/v2/models/goldenb/predict" >"$OUT/goldenB.json"
curl -fsS "$BASE/v2/models" | grep -q '"goldenb"'

# 2. Sustained concurrent load against demo.
WORKERS=4
for i in $(seq 1 "$WORKERS"); do
	(
		n=0
		while [ ! -f "$OUT/stop" ]; do
			code=$(curl -s -o "$OUT/load_${i}_${n}.json" -w '%{http_code}' \
				-X POST -H 'Content-Type: application/json' \
				--data-binary @"$OUT/req.json" "$BASE/v2/models/demo/predict" || echo 000)
			echo "$code" >>"$OUT/codes_$i"
			n=$((n + 1))
		done
	) &
	LOAD_PIDS+=("$!")
done

sleep 1 # traffic against vA
# 3. Hot-swap demo to vB mid-load.
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary '{"name":"demo","dir":"'"$OUT"'/ckptB"}' "$BASE/v2/admin/swap" \
	| grep -q '"version":"vB"'
echo "smoke-swap: swapped demo to vB under load"
sleep 1 # traffic against vB

touch "$OUT/stop"
wait "${LOAD_PIDS[@]}"
LOAD_PIDS=()

# Post-swap, a fresh predict must serve the NEW model bit for bit.
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/req.json" "$BASE/v2/models/demo/predict" >"$OUT/post_swap.json"

python3 - "$OUT" <<'EOF'
import glob, json, sys
out = sys.argv[1]
codes = []
for f in glob.glob(out + "/codes_*"):
    codes += [l.strip() for l in open(f) if l.strip()]
assert codes, "load generator produced no requests"
bad = [c for c in codes if c != "200"]
assert not bad, f"{len(bad)} of {len(codes)} requests failed during the swap: {bad[:10]}"
ga = json.load(open(out + "/goldenA.json"))
gb = json.load(open(out + "/goldenB.json"))
assert ga["data"] != gb["data"], "the two model versions predict identically; smoke proves nothing"
n_a = n_b = 0
for path in glob.glob(out + "/load_*.json"):
    try:
        got = json.load(open(path))
    except ValueError:
        raise AssertionError(f"{path} is not valid JSON (torn response?)")
    if got == ga:
        n_a += 1
    elif got == gb:
        n_b += 1
    else:
        raise AssertionError(f"{path} matches neither version (mixed-version response)")
post = json.load(open(out + "/post_swap.json"))
assert post == gb, "post-swap predict does not match the new model"
print(f"smoke-swap: {len(codes)} requests, 0 failures ({n_a} on vA, {n_b} on vB, never mixed)")
EOF

# 4. Health + metrics reflect the swap.
curl -fsS "$BASE/healthz" | grep -q '"version":"vB"'
curl -fsS "$BASE/metrics" >"$OUT/metrics.txt"
grep -q '^repro_registry_swaps_total 1$' "$OUT/metrics.txt"
grep -q 'repro_model_requests_total{model="demo"' "$OUT/metrics.txt"

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
echo "smoke-swap: OK"
