#!/usr/bin/env bash
# End-to-end smoke for the query service: build a tiny forest, start
# `repro serve` in the background, poke every endpoint over real HTTP,
# assert the request counter moved, and check SIGTERM drains cleanly.
# CI runs this as the serve-smoke job; it works locally too:
#
#   tools/serve_smoke.sh
set -euo pipefail
# No check pipes into `grep -q`: it exits at the first match, the producer
# then dies of EPIPE and pipefail fails the step. A pipe ends in
# `grep PATTERN >/dev/null`, which reads all of its input; captured output
# is matched with `grep -q PATTERN <<<"$VAR"`.

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
export PYTHONPATH="$ROOT/src"

DATA="$WORK/data"
MODEL="$WORK/model"
LOG="$WORK/serve.log"

echo "== build a tiny model (1 month of trace, 7 days of forest)"
python -m repro generate --out "$DATA" --months 1
python -m repro build --data "$DATA" --model "$MODEL" --days 7

echo "== start repro serve on an ephemeral port"
python -m repro serve --data "$DATA" --model "$MODEL" --port 0 >"$LOG" 2>&1 &
SERVE_PID=$!

# the startup banner ("serving <dir> on http://... (digest ...") carries
# the resolved port; wait for it
BASE=""
for _ in $(seq 1 100); do
    BASE="$(sed -n 's|.* on \(http://[^ ]*\) .*|\1|p' "$LOG" | head -n 1)"
    [ -n "$BASE" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "server exited during startup"; cat "$LOG"; exit 1
    fi
    sleep 0.2
done
[ -n "$BASE" ] || { echo "server never printed its URL"; cat "$LOG"; exit 1; }
echo "   serving at $BASE"

echo "== GET /healthz"
curl -fsS "$BASE/healthz" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["status"] == "ok", doc
assert doc["model"]["built_days"] == 7, doc
'

echo "== POST /query"
curl -fsS -X POST --data '{"first_day": 0, "days": 7}' "$BASE/query" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["request_id"], doc
assert doc["returned"] >= 1, doc
'

echo "== GET /metrics has a non-zero request counter"
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -E '^repro_serve_requests_total [1-9]' >/dev/null || {
    echo "expected non-zero repro_serve_requests_total"
    echo "$METRICS" | grep repro_serve | head -20
    exit 1
}

echo "== repro top renders one frame from the live endpoint"
python -m repro top --url "$BASE/metrics" --iterations 1 --no-clear \
    | grep "repro top" >/dev/null || { echo "repro top produced no frame"; exit 1; }

echo "== SIGTERM drains and exits 0"
kill -TERM "$SERVE_PID"
CODE=0
wait "$SERVE_PID" || CODE=$?
SERVE_PID=""
[ "$CODE" -eq 0 ] || { echo "serve exited $CODE"; cat "$LOG"; exit 1; }
grep -q "drained, bye" "$LOG" || { echo "missing drain banner"; cat "$LOG"; exit 1; }

echo "serve smoke OK"
