#!/usr/bin/env bash
# End-to-end smoke of cluster serving (make smoke-cluster, CI job
# smoke-cluster): train two model versions → golden single-replica run
# → 3 replicas + 1 warm standby behind cmd/router → sustained
# concurrent load → rolling hot-swap MID-LOAD → kill -9 one replica
# MID-LOAD → promote the standby → assert:
#
#   1. zero failed client requests across the whole run — the rolling
#      swap AND the kill -9 are both invisible to clients;
#   2. every response bit-matches one of the two versions served by a
#      single-replica golden run (never a mix, never replica-dependent);
#   3. the rolling swap touched replicas strictly in sequence and fleet
#      capacity never dropped below N−1 (asserted from the router's own
#      min_routable accounting, response + /metrics);
#   4. the router detected the killed replica (healthz down, ≥1 retry)
#      and the promoted standby serves the post-swap version;
#   5. the fixed loadtest.sh runs clean against the router (its
#      non-zero-exit-on-failure contract is load-bearing here);
#   6. router and surviving replicas drain gracefully on SIGTERM.
#
# Run from anywhere: scripts/smoke_cluster.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=smoke-cluster-out
ROUTER_PID=""
GOLDEN_PID=""
REPLICA_PIDS=()
LOAD_PIDS=()
cleanup() {
	touch "$OUT/stop" 2>/dev/null || true
	for p in "${LOAD_PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
	[ -n "$ROUTER_PID" ] && kill "$ROUTER_PID" 2>/dev/null || true
	[ -n "$GOLDEN_PID" ] && kill "$GOLDEN_PID" 2>/dev/null || true
	for p in "${REPLICA_PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$OUT"
}
trap cleanup EXIT
rm -rf "$OUT" && mkdir -p "$OUT"

go build -o "$OUT/serve" ./cmd/serve
go build -o "$OUT/router" ./cmd/router
go run ./cmd/datagen -n 24 -snapshots 30 -out "$OUT/data.gob"
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 -seed 1 \
	-out "$OUT/ckptA" -model-name demo -model-version vA
go run ./cmd/train -data "$OUT/data.gob" -ranks 4 -epochs 2 -seed 2 \
	-out "$OUT/ckptB" -model-name demo -model-version vB

# wait_addr LOGFILE PATTERN PID → echoes the parsed address.
wait_addr() {
	local log=$1 pat=$2 pid=$3 addr=""
	for _ in $(seq 1 100); do
		addr=$(awk -v p="$pat" '$0 ~ "^"p{print $3; exit}' "$log")
		[ -n "$addr" ] && break
		kill -0 "$pid" 2>/dev/null || { echo "process died:" >&2; cat "$log" >&2; return 1; }
		sleep 0.1
	done
	[ -n "$addr" ] || { echo "no listener:" >&2; cat "$log" >&2; return 1; }
	echo "$addr"
}

# Golden single-replica run: both versions' bit-exact answers for the
# probe request the fleet load will replay.
"$OUT/serve" -addr 127.0.0.1:0 -ckpt "$OUT/ckptA" -init "$OUT/data.gob" >"$OUT/golden.log" 2>&1 &
GOLDEN_PID=$!
GADDR=$(wait_addr "$OUT/golden.log" "serving on " "$GOLDEN_PID")
GBASE="http://$GADDR"
curl -fsS "$GBASE/v2/models/demo/rollout?steps=1" >"$OUT/frame.ndjson"
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
f = json.loads(open(out + "/frame.ndjson").readline())
assert not f.get("error"), f
json.dump({"states": [f["frame"]]}, open(out + "/req.json", "w"))
# loadtest.sh needs the grid shape for its synthetic payload.
open(out + "/shape.txt", "w").write(" ".join(str(d) for d in f["frame"]["shape"]) + "\n")
EOF
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/req.json" "$GBASE/v2/models/demo/predict" >"$OUT/goldenA.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary '{"name":"goldenb","dir":"'"$OUT"'/ckptB"}' "$GBASE/v2/admin/load" >/dev/null
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$OUT/req.json" "$GBASE/v2/models/goldenb/predict" >"$OUT/goldenB.json"
kill -TERM "$GOLDEN_PID" && wait "$GOLDEN_PID" || true
GOLDEN_PID=""
echo "smoke-cluster: golden answers captured for vA and vB"

# 3 routed replicas + 1 warm standby, all booted from ckptA.
REPLICA_FLAGS=()
declare -A REPLICA_PID_BY_ID
for i in 1 2 3 4; do
	"$OUT/serve" -addr 127.0.0.1:0 -ckpt "$OUT/ckptA" -replica "r$i" >"$OUT/r$i.log" 2>&1 &
	pid=$!
	REPLICA_PIDS+=("$pid")
	REPLICA_PID_BY_ID[r$i]=$pid
	addr=$(wait_addr "$OUT/r$i.log" "serving on " "$pid")
	if [ "$i" -lt 4 ]; then
		REPLICA_FLAGS+=(-replica "r$i=http://$addr")
	else
		REPLICA_FLAGS+=(-standby "r$i=http://$addr")
	fi
done

"$OUT/router" -addr 127.0.0.1:0 "${REPLICA_FLAGS[@]}" \
	-probe-interval 500ms -access-log >"$OUT/router.log" 2>&1 &
ROUTER_PID=$!
RADDR=$(wait_addr "$OUT/router.log" "routing on " "$ROUTER_PID")
BASE="http://$RADDR"
echo "smoke-cluster: router at $BASE over r1 r2 r3 (+standby r4)"

curl -fsS "$BASE/healthz" >"$OUT/health0.json"
grep -q '"status":"ok"' "$OUT/health0.json"
grep -q '"ready":3' "$OUT/health0.json"

# Sustained concurrent load through the router.
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

# Rolling hot-swap of the whole fleet to vB, mid-load.
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary '{"name":"demo","dir":"'"$OUT"'/ckptB"}' "$BASE/v2/admin/swap" >"$OUT/swap.json"
python3 - "$OUT" <<'EOF'
import json, sys
sw = json.load(open(sys.argv[1] + "/swap.json"))
assert sw.get("op") == "rolling-swap" and sw.get("version") == "vB", sw
steps = sw["steps"]
assert len(steps) == 4, f"want 3 routed + 1 standby steps, got {steps}"
assert all(s.get("to") == "vB" and not s.get("skipped") for s in steps), steps
assert steps[-1]["standby"] and steps[-1]["replica"] == "r4", steps
assert sw["min_routable"] >= 2, f"capacity dropped below N-1 during the deploy: {sw}"
print(f"smoke-cluster: rolling swap ok, min routable {sw['min_routable']} (never below N-1)")
EOF

sleep 1 # traffic against vB

# kill -9 one routed replica mid-load: clients must see nothing.
kill -9 "${REPLICA_PID_BY_ID[r2]}"
echo "smoke-cluster: kill -9 r2 under load"
for _ in $(seq 1 100); do
	curl -fsS "$BASE/healthz" >"$OUT/health_kill.json" || true
	grep -q '"id":"r2","url":[^,]*,"state":"down"' "$OUT/health_kill.json" && break
	sleep 0.1
done
grep -q '"id":"r2","url":[^,]*,"state":"down"' "$OUT/health_kill.json" || {
	echo "router never marked r2 down:"; cat "$OUT/health_kill.json"; exit 1; }

# Promote the warm standby to restore capacity; it was included in the
# rolling swap, so it serves vB.
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary '{"name":"r4"}' "$BASE/v2/admin/promote" | grep -q '"name":"r4"'
echo "smoke-cluster: promoted standby r4"

sleep 1 # traffic across the healed fleet
touch "$OUT/stop"
wait "${LOAD_PIDS[@]}"
LOAD_PIDS=()

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
assert not bad, f"{len(bad)} of {len(codes)} requests failed across swap + kill -9: {bad[:10]}"
ga = json.load(open(out + "/goldenA.json"))
gb = json.load(open(out + "/goldenB.json"))
assert ga["data"] != gb["data"], "the two versions predict identically; smoke proves nothing"
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
        raise AssertionError(f"{path} matches neither golden version (mixed or replica-dependent response)")
post = json.load(open(out + "/post_swap.json"))
assert post == gb, "post-swap predict does not match the new model"
print(f"smoke-cluster: {len(codes)} requests, 0 failures ({n_a} on vA, {n_b} on vB, bit-identical to the golden run)")
EOF

# Router metrics: the kill was absorbed (zero failed, ≥1 retry), the
# swap completed and never dipped below N−1.
curl -fsS "$BASE/metrics" >"$OUT/metrics.txt"
grep -q '^repro_router_failed_requests_total 0$' "$OUT/metrics.txt"
grep -q '^repro_router_swaps_total 1$' "$OUT/metrics.txt"
RETRIES=$(awk '/^repro_router_retries_total /{print $2}' "$OUT/metrics.txt")
[ "$RETRIES" -ge 1 ] || { echo "kill -9 absorbed without any retry (retries=$RETRIES)?"; exit 1; }
MINR=$(awk '/^repro_router_swap_min_routable /{print $2}' "$OUT/metrics.txt")
[ "$MINR" -ge 2 ] || { echo "swap_min_routable=$MINR, want >= N-1"; exit 1; }
echo "smoke-cluster: metrics ok (0 failed, $RETRIES retries, min routable $MINR)"

# The fixed loadtest.sh (counts failures, exits non-zero) against the
# router: a short clean burst through the healed fleet.
read -r SC SH SW <"$OUT/shape.txt"
scripts/loadtest.sh "$BASE" 4 3 "$SC" "$SH" "$SW"

# Graceful teardown: router first, then the surviving replicas.
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "router exited non-zero:"; cat "$OUT/router.log"; exit 1; }
ROUTER_PID=""
grep -q "routed .* requests .* rolling swaps" "$OUT/router.log" || {
	echo "router drain stats missing:"; cat "$OUT/router.log"; exit 1; }
for id in r1 r3 r4; do
	pid=${REPLICA_PID_BY_ID[$id]}
	kill -TERM "$pid"
	wait "$pid" || { echo "replica $id exited non-zero:"; cat "$OUT/$id.log"; exit 1; }
done
REPLICA_PIDS=()
echo "smoke-cluster: OK"
