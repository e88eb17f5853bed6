#!/usr/bin/env bash
# End-to-end smoke of the edge admission layer (make smoke-admission,
# CI job smoke-admission, DESIGN.md §15): datagen → train → a golden
# no-admission run, then the same server behind an enforced policy:
#
#   A. shed: one long rollout pins max_concurrent=1 while 4 gold +
#      16 bulk predicts arrive — every request gets exactly one typed
#      outcome (200 or 503 "overloaded" + Retry-After), gold is NEVER
#      shed while bulk is, and every 200 body is bit-identical to the
#      no-admission golden response;
#   B. rate limit: hot-reload (POST /v2/admin/policy) to a 1 req/s
#      bucket, burst a sequential run into it, assert typed 429
#      "rate_limited" + Retry-After and golden-identical successes;
#   C. CIDR hot-reload mid-load: flip 127.0.0.0/8 from denied to
#      allowed while a request loop runs — the loop sees 403s, then
#      200s, and nothing else (no drops, no transport errors);
#   D. SIGHUP: rewrite the -policy file and signal — same flip without
#      the admin route;
#   E. /metrics exports every repro_admission_* family with the
#      counters the phases above must have moved, and the overload
#      mode of scripts/loadtest.sh reports 2xx/429/503 separately.
#
# Run from anywhere: scripts/smoke_admission.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=smoke-admission-out
SERVE_PID=""
cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	rm -rf "$OUT"
}
trap cleanup EXIT
rm -rf "$OUT" && mkdir -p "$OUT"

go build -o "$OUT/serve" ./cmd/serve
go build -o "$OUT/policyc" ./cmd/policyc
go run ./cmd/datagen -n 24 -snapshots 30 -out "$OUT/data.gob"
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 -out "$OUT/ckpt"

# Deterministic predict payload (shape must match the trained grid).
python3 - "$OUT/predict_req.json" <<'EOF'
import json, sys
n = 4 * 24 * 24
data = [((i * 2654435761) % 1000) / 1000.0 for i in range(n)]
json.dump({"states": [{"shape": [4, 24, 24], "data": data}]}, open(sys.argv[1], "w"))
EOF

start_serve() { # args: extra serve flags…
	"$OUT/serve" -addr 127.0.0.1:0 -ckpt "$OUT/ckpt" -init "$OUT/data.gob" \
		"$@" >"$OUT/serve.log" 2>&1 &
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
}

stop_serve() {
	kill -TERM "$SERVE_PID"
	for _ in $(seq 1 100); do
		kill -0 "$SERVE_PID" 2>/dev/null || break
		sleep 0.1
	done
	wait "$SERVE_PID" || { echo "server exited non-zero:"; cat "$OUT/serve.log"; exit 1; }
	SERVE_PID=""
}

predict_code() { # args: outfile [curl extras…]
	local out="$1"; shift
	curl -sS -o "$out" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		"$@" --data-binary @"$OUT/predict_req.json" "$BASE/v1/predict" 2>/dev/null || echo 000
}

# ---- Golden run: no admission at all.
start_serve
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/predict_req.json" "$BASE/v1/predict" >"$OUT/golden.json"
stop_serve
[ -s "$OUT/golden.json" ] || { echo "golden predict is empty"; exit 1; }
echo "smoke-admission: golden no-admission response captured"

# ---- The enforced run. Phase A policy: one slot, gold outranks bulk.
cat >"$OUT/policy.json" <<'EOF'
{
	"max_concurrent": 1,
	"max_queue_wait": "30s",
	"class_header": "X-Class",
	"classes": [
		{"name": "gold", "queue": 64},
		{"name": "bulk", "queue": 2}
	]
}
EOF
"$OUT/policyc" -policy "$OUT/policy.json" >/dev/null   # the offline check agrees
start_serve -policy "$OUT/policy.json"
grep -q "admission: policy" "$OUT/serve.log" || { echo "admission not enabled:"; cat "$OUT/serve.log"; exit 1; }
echo "smoke-admission: server at $BASE (policy enforced)"

# Pin the single slot with a long streaming rollout…
curl -fsS -H 'X-Class: gold' "$BASE/v1/rollout?steps=600" >"$OUT/rollout.ndjson" &
ROLLOUT_PID=$!
for _ in $(seq 1 100); do
	curl -fsS "$BASE/metrics" | grep -q '^repro_admission_running 1$' && break
	sleep 0.05
done
curl -fsS "$BASE/metrics" | grep -q '^repro_admission_running 1$' || {
	echo "rollout never took the slot"; exit 1; }

# …then slam it: 4 gold + 16 bulk concurrent predicts.
CURL_PIDS=()
for i in $(seq 1 16); do
	( predict_code "$OUT/bulk_$i.json" -H 'X-Class: bulk' -D "$OUT/bulk_$i.hdr" >"$OUT/bulk_$i.code" ) &
	CURL_PIDS+=("$!")
done
for i in $(seq 1 4); do
	( predict_code "$OUT/gold_$i.json" -H 'X-Class: gold' >"$OUT/gold_$i.code" ) &
	CURL_PIDS+=("$!")
done
wait "${CURL_PIDS[@]}"
wait "$ROLLOUT_PID" || { echo "pinning rollout failed"; cat "$OUT/serve.log"; exit 1; }

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
golden = open(out + "/golden.json", "rb").read()
shed = ok = 0
for cls, n in (("gold", 4), ("bulk", 16)):
    for i in range(1, n + 1):
        code = open(f"{out}/{cls}_{i}.code").read().strip()
        body = open(f"{out}/{cls}_{i}.json", "rb").read()
        assert code in ("200", "503"), f"{cls} {i}: untyped outcome {code!r}"
        if code == "200":
            ok += 1
            assert body == golden, f"{cls} {i}: 200 body differs from the no-admission golden"
        else:
            shed += 1
            assert cls != "gold", f"gold {i} was shed while bulk traffic existed"
            env = json.loads(body)["error"]
            assert env["code"] == "overloaded", env
            assert env["request_id"], "shed response lost its request ID"
print(f"smoke-admission: phase A ok ({ok} served bit-identical, {shed} bulk shed, 0 gold shed)")
assert shed >= 1, "saturation produced no shed at all"
EOF
# Every 503 advertises when to come back.
for f in "$OUT"/bulk_*.code; do
	i=${f##*bulk_}; i=${i%.code}
	if [ "$(cat "$f")" = 503 ]; then
		grep -qi '^retry-after:' "$OUT/bulk_$i.hdr" || {
			echo "bulk $i shed without Retry-After:"; cat "$OUT/bulk_$i.hdr"; exit 1; }
	fi
done
# ---- Phase B: hot-reload to a 1 req/s bucket via the admin route.
curl -fsS -X POST --data-binary '{"rate":1,"burst":2}' "$BASE/v2/admin/policy" >"$OUT/reload1.json"
grep -q '"op":"policy"' "$OUT/reload1.json" || { echo "reload response malformed: $(cat "$OUT/reload1.json")"; exit 1; }
LIMITED=0
for i in $(seq 1 6); do
	code=$(predict_code "$OUT/burst_$i.json")
	echo "$code" >"$OUT/burst_$i.code"
	if [ "$code" = 429 ]; then
		LIMITED=$((LIMITED + 1))
		# The refusal is typed and hints when to come back.
		grep -q '"code":"rate_limited"' "$OUT/burst_$i.json" || {
			echo "429 body lacks the typed code: $(cat "$OUT/burst_$i.json")"; exit 1; }
	elif [ "$code" = 200 ]; then
		cmp -s "$OUT/burst_$i.json" "$OUT/golden.json" || {
			echo "admitted burst response differs from golden"; exit 1; }
	else
		echo "burst request $i: unexpected status $code"; exit 1
	fi
done
[ "$LIMITED" -ge 1 ] || { echo "1 req/s bucket never limited a 6-request burst"; exit 1; }
# Retry-After on a deterministic refusal: the bucket is empty now.
RETRY=$(curl -sS -o /dev/null -D - -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/predict_req.json" "$BASE/v1/predict" | awk 'tolower($1)=="retry-after:"{print $2}' | tr -d '\r')
[ -n "$RETRY" ] && [ "$RETRY" -ge 1 ] || { echo "429 without a usable Retry-After: '$RETRY'"; exit 1; }
echo "smoke-admission: phase B ok ($LIMITED of 6 rate-limited, Retry-After $RETRY)"

# ---- Phase C: flip a denied CIDR to allowed in the middle of a
# request loop; the loop must see 403s, then 200s, and nothing else.
curl -fsS -X POST --data-binary '{"rules":[{"cidr":"127.0.0.0/8","action":"deny"}]}' \
	"$BASE/v2/admin/policy" >/dev/null
code=$(predict_code /dev/null)
[ "$code" = 403 ] || { echo "denied CIDR answered $code, want 403"; exit 1; }

: >"$OUT/flip.codes"
(
	for _ in $(seq 1 200); do
		predict_code /dev/null >>"$OUT/flip.codes"
		echo >>"$OUT/flip.codes"
	done
) &
LOOP_PID=$!
sleep 0.3
curl -fsS -X POST --data-binary '{}' "$BASE/v2/admin/policy" >/dev/null  # allow everything
wait "$LOOP_PID"
python3 - "$OUT/flip.codes" <<'EOF'
import sys
codes = [l.strip() for l in open(sys.argv[1]) if l.strip()]
assert codes, "flip loop made no requests"
bad = [c for c in codes if c not in ("403", "200")]
assert not bad, f"hot reload dropped requests or leaked untyped statuses: {set(bad)}"
assert codes[-1] == "200", "loop never saw the policy flip take effect"
n403 = codes.count("403")
print(f"smoke-admission: phase C ok ({n403} denied then {len(codes)-n403} allowed, zero drops)")
EOF

# ---- Phase D: the same flip through SIGHUP + the -policy file.
cat >"$OUT/policy.json" <<'EOF'
{"rules": [{"cidr": "127.0.0.0/8", "action": "deny"}]}
EOF
kill -HUP "$SERVE_PID"
for _ in $(seq 1 100); do
	[ "$(predict_code /dev/null)" = 403 ] && break
	sleep 0.1
done
[ "$(predict_code /dev/null)" = 403 ] || { echo "SIGHUP deny reload never applied"; cat "$OUT/serve.log"; exit 1; }
cat >"$OUT/policy.json" <<'EOF'
{"rate": 20, "burst": 10}
EOF
kill -HUP "$SERVE_PID"
for _ in $(seq 1 100); do
	[ "$(predict_code /dev/null)" = 200 ] && break
	sleep 0.1
done
[ "$(predict_code /dev/null)" = 200 ] || { echo "SIGHUP allow reload never applied"; cat "$OUT/serve.log"; exit 1; }
grep -q "admission: policy reloaded from" "$OUT/serve.log" || {
	echo "SIGHUP reload not logged:"; cat "$OUT/serve.log"; exit 1; }
echo "smoke-admission: phase D ok (SIGHUP reload applied twice)"

# ---- Phase E: metrics families + the loadtest overload mode (the
# active policy rate-limits at 20 req/s, well under the closed-loop
# demand, so the report shows a 2xx/429 mix).
curl -fsS "$BASE/metrics" >"$OUT/metrics.txt"
for metric in \
	"repro_admission_allowed_total" \
	"repro_admission_denied_total" \
	"repro_admission_rate_limited_total" \
	"repro_admission_policy_reloads_total" \
	"repro_admission_shed_wait_seconds_bucket" \
	"repro_admission_shed_wait_seconds_count"; do
	grep -q "^$metric" "$OUT/metrics.txt" || { echo "metrics missing $metric"; cat "$OUT/metrics.txt"; exit 1; }
done
python3 - "$OUT/metrics.txt" <<'EOF'
import sys
vals = {}
for line in open(sys.argv[1]):
    if line.startswith("repro_admission_") and " " in line:
        k, v = line.rsplit(" ", 1)
        vals[k] = float(v)
assert vals["repro_admission_denied_total"] >= 1, vals
assert vals["repro_admission_rate_limited_total"] >= 1, vals
assert vals['repro_admission_shed_total{class="bulk"}'] >= 1, vals
assert vals['repro_admission_shed_total{class="gold"}'] == 0, vals
assert vals["repro_admission_policy_reloads_total"] >= 5, vals
assert vals["repro_admission_shed_wait_seconds_count"] >= 1, vals
bulk_shed = vals['repro_admission_shed_total{class="bulk"}']
print("smoke-admission: phase E metrics ok "
      f"(denied {vals['repro_admission_denied_total']:.0f}, "
      f"limited {vals['repro_admission_rate_limited_total']:.0f}, "
      f"bulk shed {bulk_shed:.0f})")
EOF

LOADTEST_MODE=overload scripts/loadtest.sh "$BASE" 8 3 4 24 24 | tee "$OUT/loadtest.txt"
grep -q "rate-limited (429)" "$OUT/loadtest.txt" || { echo "overload report missing the 429 column"; exit 1; }

stop_serve
echo "smoke-admission: OK"
