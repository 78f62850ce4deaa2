#!/usr/bin/env bash
# End-to-end smoke for the query service under load, the SLO engine, the
# tail-sampled trace store, and the streaming ingest path: build a tiny
# forest, start `repro serve` with SLOs, telemetry persistence, trace
# persistence, and live ingest enabled, drive a short closed loop of
# `POST /query` against it (inline Python over http.client), stream one
# day of events through `POST /ingest` and check `/query` reflects it,
# gate on `repro slo check` — live (`/slo`), then offline against the
# tsdb segments the sampler persisted — verify the tail sampler kept
# traces that `repro trace show` resolves both live and from the
# persisted segments, force an SLO PAGE against a strict config and
# resolve the alert's trace exemplar offline with `repro trace show`,
# and finally drain a spool directory offline with `repro ingest --once`,
# resuming from the published snapshot. Each segment directory is seeded
# with a `<prefix>notes.ndjson` file that is not a segment: serve must
# start beside it, leave it byte-unchanged and replay without it. CI
# runs this as the load-smoke job and uploads the trace segments, ingest
# checkpoint and snapshot it produces; it works locally too:
#
#   tools/load_smoke.sh [out-dir]
set -euo pipefail
# No check pipes into `grep -q`: it exits at the first match, the producer
# then dies of EPIPE and pipefail fails the step. A pipe ends in
# `grep PATTERN >/dev/null`, which reads all of its input; captured output
# is matched with `grep -q PATTERN <<<"$VAR"`.

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT_DIR="${1:-$ROOT}"
mkdir -p "$OUT_DIR"
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
TSDB="$WORK/tsdb"
SNAPS="$WORK/snaps"
SPOOL="$WORK/spool"
TRACES="$OUT_DIR/trace-segments"
LOG="$WORK/serve.log"
rm -rf "$TRACES"

echo "== build a tiny model (1 month of trace, 7 days of forest)"
python -m repro generate --out "$DATA" --months 1
python -m repro build --data "$DATA" --model "$MODEL" --days 7

echo "== seed each segment directory with a non-segment file"
mkdir -p "$TSDB" "$TRACES"
echo '{"note": "not a segment"}' >"$TSDB/tsdb-notes.ndjson"
echo '{"note": "not a segment"}' >"$TRACES/trace-notes.ndjson"
sha256sum "$TSDB/tsdb-notes.ndjson" "$TRACES/trace-notes.ndjson" \
    >"$WORK/notes.sha256"

echo "== start repro serve with SLOs + tsdb + traces + ingest"
python -m repro serve --data "$DATA" --model "$MODEL" --port 0 \
    --slo "$ROOT/examples/slo.yaml" --tsdb-dir "$TSDB" \
    --sample-interval 0.5 --trace-dir "$TRACES" \
    --trace-threshold 0 \
    --ingest --ingest-snapshot-dir "$SNAPS" \
    >"$LOG" 2>&1 &
SERVE_PID=$!

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

echo "== closed loop: 2 clients POST /query for 5s"
python - "$BASE" <<'PY'
import http.client, json, sys, threading, time
from urllib.parse import urlsplit

url = urlsplit(sys.argv[1])
# day and week windows over the 7 built days; every 4th asks for explain
bodies = [
    json.dumps({"first_day": first, "days": days, "limit": 5,
                "explain": i % 4 == 0}).encode()
    for i, (first, days) in enumerate([(0, 1), (0, 7), (3, 1), (6, 1)])
]
latencies, failures, lock = [], [], threading.Lock()
deadline = time.monotonic() + 5.0

def client(offset):
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    i = offset
    while time.monotonic() < deadline:
        started = time.perf_counter()
        conn.request("POST", "/query", body=bodies[i % len(bodies)])
        response = conn.getresponse()
        doc = json.loads(response.read())
        with lock:
            if response.status == 200 and "clusters" in doc:
                latencies.append(time.perf_counter() - started)
            else:
                failures.append((response.status, doc))
        i += 1
    conn.close()

threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert latencies, "no query succeeded"
assert not failures, failures[:3]
latencies.sort()
p50 = latencies[len(latencies) // 2]
print(f"   {len(latencies)} queries, 0 errors, p50 {p50 * 1e3:.1f}ms, "
      f"max {latencies[-1] * 1e3:.1f}ms")
PY

echo "== stream day 7 through POST /ingest, 12 windows a batch, flush last"
python - "$BASE" "$DATA" <<'PY'
import http.client, json, sys
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from repro.ingest.contract import render_ndjson
from repro.storage.catalog import DatasetCatalog

url, data = urlsplit(sys.argv[1]), Path(sys.argv[2])
batch = next(d for d in DatasetCatalog(data) if 7 in d.days).atypical_day(7)
order = np.lexsort((batch.sensor_ids, batch.windows))  # stream order
rows = [(int(batch.sensor_ids[i]), int(batch.windows[i]),
         float(batch.severities[i])) for i in order]
windows = sorted({window for _, window, _ in rows})
edges = windows[::12][1:] + [windows[-1] + 1]
chunks, start = [], 0
for edge in edges:
    end = next((k for k, row in enumerate(rows) if row[1] >= edge), len(rows))
    chunks.append(rows[start:end])
    start = end
conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
accepted, closed = 0, []
for k, chunk in enumerate(chunks):
    path = "/ingest?flush=1" if k == len(chunks) - 1 else "/ingest"
    conn.request("POST", path, body=render_ndjson(chunk),
                 headers={"Content-Type": "application/x-ndjson"})
    response = conn.getresponse()
    doc = json.loads(response.read())
    assert response.status == 200, (response.status, doc)
    assert not doc["rejected"], doc
    accepted += doc["accepted"]
    closed += doc["closed_days"]
conn.close()
assert accepted == len(rows) > 0, (accepted, len(rows))
assert closed == [7], closed
print(f"   {accepted} events in {len(chunks)} batches, day 7 closed")
PY

echo "== /query reflects the streamed day (flushed, so staleness is 0)"
curl -fsS -X POST "$BASE/query" -d '{"first_day": 7, "days": 1}' | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["returned"] >= 1, doc
print("   day 7 serves " + str(doc["returned"]) + " clusters")
'

echo "== /healthz reports every subsystem in the uniform shape"
curl -fsS "$BASE/healthz" | python -c '
import json, sys
doc = json.load(sys.stdin)
subsystems = doc["subsystems"]
assert set(subsystems) == {"tsdb", "traces", "ingest"}, subsystems
for name, block in subsystems.items():
    assert block["enabled"] is True, (name, block)
    assert "segments" in block and "last_flush_age_seconds" in block, block
ingest = subsystems["ingest"]
assert ingest["open_day"] == 8, ingest
assert ingest["pending_rows"] == 0, ingest
assert ingest["staleness_seconds"] == 0.0, ingest
assert ingest["snapshots"] >= 1, ingest
print("   open day " + str(ingest["open_day"]) + ", "
      + str(ingest["accepted"]) + " accepted, snapshot published")
'

echo "== the day close published an atomic snapshot"
[ -L "$SNAPS/current" ] || { echo "no current symlink"; exit 1; }
ls "$SNAPS/current/forest.bin" "$SNAPS/current/cube.bin" \
    "$SNAPS/current/engine.json" >/dev/null

echo "== GET /slo reports a state"
curl -fsS "$BASE/slo" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["state"] in ("OK", "WARN", "PAGE"), doc
assert len(doc["slos"]) == 3, doc
print("   overall: " + doc["state"])
'

echo "== GET /traces is non-empty after the load"
TRACE_ID="$(curl -fsS "$BASE/traces" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["count"] > 0, doc
assert doc["kept"] > 0, doc
first = doc["traces"][0]
assert first["spans"] > 0, first
print(first["request_id"])
')"
[ -n "$TRACE_ID" ] || { echo "no trace id captured"; exit 1; }
echo "   kept traces include $TRACE_ID"

echo "== repro trace show resolves the live-captured id"
python -m repro trace show "$TRACE_ID" --trace-dir "$TRACES" \
    | grep "trace $TRACE_ID" >/dev/null || { echo "trace show failed"; exit 1; }

echo "== repro slo check (live) gates green"
python -m repro slo check "$BASE"

echo "== /metrics exports the request and ingest counters"
METRICS_OUT="$(curl -fsS "$BASE/metrics")"
grep -q "^repro_serve_requests_total " <<<"$METRICS_OUT" \
    || { echo "missing request counter"; exit 1; }
grep -q "^repro_ingest_events_accepted_total " <<<"$METRICS_OUT" \
    || { echo "missing ingest counter"; exit 1; }

echo "== misuse exits 2 with one error line"
set +e
python -m repro slo check "$WORK/nope.json" --config "$WORK/nope.yaml" \
    2>"$WORK/err.txt"
CODE=$?
set -e
[ "$CODE" -eq 2 ] || { echo "expected exit 2, got $CODE"; exit 1; }
[ "$(wc -l < "$WORK/err.txt")" -eq 1 ] || { cat "$WORK/err.txt"; exit 1; }
grep -q "^error:" "$WORK/err.txt"

echo "== SIGTERM drains and exits 0"
kill -TERM "$SERVE_PID"
CODE=0
wait "$SERVE_PID" || CODE=$?
SERVE_PID=""
[ "$CODE" -eq 0 ] || { echo "serve exited $CODE"; cat "$LOG"; exit 1; }

echo "== the non-segment files are byte-unchanged"
sha256sum --check --quiet "$WORK/notes.sha256"

echo "== repro slo check replays the persisted tsdb segments"
ls "$TSDB"/tsdb-*.ndjson >/dev/null
python -m repro slo check "$TSDB" --config "$ROOT/examples/slo.yaml"

echo "== repro trace ls replays the persisted trace segments offline"
ls "$TRACES"/trace-*.ndjson >/dev/null
python -m repro trace ls --trace-dir "$TRACES" \
    | grep "$TRACE_ID" >/dev/null || { echo "persisted trace missing"; exit 1; }

echo "== a forced SLO PAGE carries a resolvable trace exemplar"
STRICT_SLO="$WORK/strict-slo.yaml"
cat > "$STRICT_SLO" <<'YAML'
slos:
  - name: availability-strict
    kind: availability
    objective: 0.999
min_requests: 1
YAML
TRACES2="$WORK/traces-page"
LOG2="$WORK/serve-page.log"
python -m repro serve --data "$DATA" --model "$MODEL" --port 0 \
    --slo "$STRICT_SLO" --sample-interval 0.5 \
    --trace-dir "$TRACES2" >"$LOG2" 2>&1 &
SERVE_PID=$!
BASE2=""
for _ in $(seq 1 100); do
    BASE2="$(sed -n 's|.* on \(http://[^ ]*\) .*|\1|p' "$LOG2" | head -n 1)"
    [ -n "$BASE2" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "page-scenario server exited during startup"; cat "$LOG2"; exit 1
    fi
    sleep 0.2
done
[ -n "$BASE2" ] || { echo "page-scenario server never printed its URL"; cat "$LOG2"; exit 1; }
# burn the availability budget: a batch of malformed queries 400s, and
# the tail sampler keeps every errored request
for _ in $(seq 1 10); do
    curl -sS -o /dev/null -X POST "$BASE2/query" -d '{not json' || true
done
curl -fsS -o /dev/null "$BASE2/healthz"
sleep 2  # two sampler ticks so the tsdb sees the burned budget
EXEMPLAR="$(curl -fsS "$BASE2/slo" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["state"] == "PAGE", doc
entry = doc["slos"][0]
assert entry["state"] == "PAGE", entry
assert entry["exemplar_trace_ids"], entry
print(entry["exemplar_trace_ids"][0])
')"
echo "   paged with trace exemplar $EXEMPLAR"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "page-scenario serve failed"; cat "$LOG2"; exit 1; }
SERVE_PID=""

echo "== repro trace show resolves the exemplar offline to the errored request"
SHOW_OUT="$(python -m repro trace show "$EXEMPLAR" --trace-dir "$TRACES2")"
grep -q "trace $EXEMPLAR" <<<"$SHOW_OUT" \
    || { echo "exemplar trace missing offline"; exit 1; }
grep -q "status=400" <<<"$SHOW_OUT" \
    || { echo "exemplar trace is not the errored request"; exit 1; }
echo "   exemplar $EXEMPLAR resolves offline"

echo "== spool one more day and drain it with repro ingest --once"
python - "$DATA" "$SPOOL" <<'PY'
import sys
from pathlib import Path

import numpy as np

from repro.ingest.spool import write_spool_file
from repro.storage.catalog import DatasetCatalog

data, spool = Path(sys.argv[1]), Path(sys.argv[2])
for dataset in DatasetCatalog(data):
    if 8 in dataset.days:
        batch = dataset.atypical_day(8)
        order = np.lexsort((batch.sensor_ids, batch.windows))
        rows = [
            (int(batch.sensor_ids[i]), int(batch.windows[i]),
             float(batch.severities[i]))
            for i in order
        ]
        write_spool_file(spool, "000008.ndjson", rows)
        print(f"   spooled {len(rows)} events for day 8")
        break
else:
    sys.exit("day 8 not in the catalog")
PY
python -m repro ingest --data "$DATA" --spool "$SPOOL" \
    --model "$SNAPS/current" --snapshot-dir "$SNAPS" --once --flush

echo "== the checkpoint covers the drained spool file"
grep -q "000008.ndjson" "$SNAPS/checkpoint.json"

echo "== the spooled day is queryable from the new snapshot"
QUERY_OUT="$(python -m repro query --data "$DATA" --model "$SNAPS/current" \
    --first-day 8 --days 1)"
echo "   $QUERY_OUT"
grep -Eq "via gui: [1-9][0-9]* inputs" <<<"$QUERY_OUT" \
    || { echo "spooled day not queryable"; exit 1; }

echo "== export ingest artifacts (checkpoint + snapshot) for CI upload"
cp "$SNAPS/checkpoint.json" "$OUT_DIR/ingest-checkpoint.json"
rm -rf "$OUT_DIR/ingest-snapshot"
cp -rL "$SNAPS/current" "$OUT_DIR/ingest-snapshot"

echo "load smoke OK"
