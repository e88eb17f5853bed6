#!/usr/bin/env bash
# Closed-loop load test for cmd/serve's /v1/predict: C concurrent curl
# workers each fire predictions back to back for D seconds; reports
# aggregate requests/s (the server prints its predict count on exit):
#
#   go run ./cmd/serve -ckpt ckpt -addr 127.0.0.1:8080 &
#   scripts/loadtest.sh http://127.0.0.1:8080 16 10
#
# Usage: scripts/loadtest.sh BASE_URL [CONCURRENCY] [SECONDS] [C H W]
# The state shape (default 4 128 128) must match the served grid; the
# payload is a synthetic deterministic state, which is fine for
# throughput measurement (the engine does identical work for any
# values).
#
# Modes (LOADTEST_MODE env):
#   strict   (default) any non-2xx or transport error is a failure and
#            the script exits 1 — the right contract when nothing
#            should be refused.
#   overload the admission-control contract (DESIGN.md §15): 2xx, 429
#            (rate_limited) and 503 (overloaded) are each counted and
#            reported separately as deliberate, typed outcomes; only
#            other statuses and transport errors fail the run.
#
# LOADTEST_HEADER optionally adds one extra request header (e.g.
# "X-Class: bulk") so admission classes can be exercised per run.
set -euo pipefail

BASE="${1:?usage: loadtest.sh BASE_URL [CONCURRENCY] [SECONDS] [C H W]}"
WORKERS="${2:-16}"
SECONDS_RUN="${3:-10}"
C="${4:-4}"
H="${5:-128}"
W="${6:-128}"
MODE="${LOADTEST_MODE:-strict}"
EXTRA_HEADER="${LOADTEST_HEADER:-}"

case "$MODE" in
	strict|overload) ;;
	*) echo "loadtest: unknown LOADTEST_MODE '$MODE' (want strict or overload)"; exit 2 ;;
esac

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

python3 - "$TMP/req.json" "$C" "$H" "$W" <<'EOF'
import json, sys
out, c, h, w = sys.argv[1], *map(int, sys.argv[2:5])
n = c * h * w
# Deterministic non-trivial values; magnitude is irrelevant to cost.
data = [((i * 2654435761) % 1000) / 1000.0 for i in range(n)]
json.dump({"states": [{"shape": [c, h, w], "data": data}]}, open(out, "w"))
EOF

curl -fsS "$BASE/healthz" >/dev/null || { echo "server at $BASE not healthy"; exit 1; }

CURL_ARGS=(-sS -o /dev/null -X POST -H 'Content-Type: application/json')
if [ -n "$EXTRA_HEADER" ]; then
	CURL_ARGS+=(-H "$EXTRA_HEADER")
fi

echo "loadtest: $WORKERS workers × ${SECONDS_RUN}s against $BASE (state ${C}x${H}x${W}, mode $MODE)"
END=$(( $(date +%s) + SECONDS_RUN ))
for i in $(seq 1 "$WORKERS"); do
	(
		ok=0
		limited=0
		shed=0
		fail=0
		while [ "$(date +%s)" -lt "$END" ]; do
			# -w %{http_code} lets overload mode tell typed refusals
			# (429/503) apart from real failures; a transport error
			# yields 000.
			code="$(curl "${CURL_ARGS[@]}" -w '%{http_code}' \
				--data-binary @"$TMP/req.json" "$BASE/v1/predict" 2>/dev/null || true)"
			case "$code" in
				2??) ok=$((ok + 1)) ;;
				429) [ "$MODE" = overload ] && limited=$((limited + 1)) || fail=$((fail + 1)) ;;
				503) [ "$MODE" = overload ] && shed=$((shed + 1)) || fail=$((fail + 1)) ;;
				*) fail=$((fail + 1)) ;;
			esac
		done
		echo "$ok $limited $shed $fail" >"$TMP/counts_$i"
	) &
done
wait

TOTAL=0; OK=0; LIMITED=0; SHED=0; FAILED=0
for f in "$TMP"/counts_*; do
	read -r ok limited shed fail <"$f"
	OK=$((OK + ok)); LIMITED=$((LIMITED + limited)); SHED=$((SHED + shed)); FAILED=$((FAILED + fail))
done
TOTAL=$((OK + LIMITED + SHED + FAILED))

if [ "$MODE" = overload ]; then
	echo "loadtest: $TOTAL requests in ${SECONDS_RUN}s = $(python3 -c "print(f'{$TOTAL/$SECONDS_RUN:.1f}')") req/s: $OK ok (2xx), $LIMITED rate-limited (429), $SHED shed (503), $FAILED failed"
else
	echo "loadtest: $TOTAL requests in ${SECONDS_RUN}s = $(python3 -c "print(f'{$TOTAL/$SECONDS_RUN:.1f}')") req/s, $FAILED failed"
fi
if [ "$FAILED" -gt 0 ]; then
	echo "loadtest: FAIL: $FAILED request(s) failed"
	exit 1
fi
