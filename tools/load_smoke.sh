#!/usr/bin/env bash
# End-to-end smoke for the load generator, the SLO engine, the
# tail-sampled trace store, and the streaming ingest path: build a tiny
# forest, start `repro serve` with SLOs, telemetry persistence, trace
# persistence, and live ingest enabled, run a short closed-loop
# `repro loadgen` against it, stream one day of events through
# `POST /ingest` (loadgen event mode) and check `/query` reflects it,
# gate on `repro slo check` — live (`/slo`), then offline against the
# tsdb segments the sampler persisted — verify the tail sampler kept
# traces that `repro trace show` resolves both live and from the
# persisted segments, and finally drain a spool directory offline with
# `repro ingest --once`, resuming from the published snapshot. The serve
# process also runs the continuous profiler (`--prof`): the smoke asserts
# `GET /profile` is non-empty after load, replays the persisted
# prof segments offline with `repro prof`, and finally forces an SLO PAGE
# against a strict config to check the alert's exemplar_profile_id
# resolves to a non-empty flamegraph through `repro prof show`. Each
# segment directory is seeded with a `<prefix>notes.ndjson` file that is
# not a segment: serve must start beside it, leave it byte-unchanged and
# replay without it. CI runs
# this as the load-smoke job and uploads the BENCH_load.json,
# BENCH_ingest_load.json, trace segments, prof segments, ingest
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
PROF="$OUT_DIR/prof-segments"
LOG="$WORK/serve.log"
REPORT="$OUT_DIR/BENCH_load.json"
INGEST_REPORT="$OUT_DIR/BENCH_ingest_load.json"
rm -rf "$TRACES" "$PROF"

echo "== build a tiny model (1 month of trace, 7 days of forest)"
python -m repro generate --out "$DATA" --months 1
python -m repro build --data "$DATA" --model "$MODEL" --days 7

echo "== seed each segment directory with a non-segment file"
mkdir -p "$TSDB" "$TRACES" "$PROF"
echo '{"note": "not a segment"}' >"$TSDB/tsdb-notes.ndjson"
echo '{"note": "not a segment"}' >"$TRACES/trace-notes.ndjson"
echo '{"note": "not a segment"}' >"$PROF/prof-notes.ndjson"
sha256sum "$TSDB/tsdb-notes.ndjson" "$TRACES/trace-notes.ndjson" \
    "$PROF/prof-notes.ndjson" >"$WORK/notes.sha256"

echo "== start repro serve with SLOs + tsdb + traces + profiler + ingest"
python -m repro serve --data "$DATA" --model "$MODEL" --port 0 \
    --slo "$ROOT/examples/slo.yaml" --tsdb-dir "$TSDB" \
    --sample-interval 0.5 --trace-dir "$TRACES" \
    --trace-threshold 0 --prof --prof-dir "$PROF" \
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

echo "== closed-loop loadgen for 5s"
python -m repro loadgen "$BASE" --mode closed --duration 5 \
    --concurrency 2 --limit 5 --out "$REPORT"

echo "== BENCH_load.json carries rates and quantiles"
python - "$REPORT" <<'PY'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["requests"] > 0, doc
assert doc["error_rate"] == 0.0, doc
assert doc["achieved_rate"] > 0, doc
for q in ("p50", "p95", "p99", "max"):
    assert doc["latency_seconds"][q] > 0, (q, doc)
print(f"   {doc['requests']} requests at {doc['achieved_rate']}/s, "
      f"p99 {doc['latency_seconds']['p99']*1e3:.1f}ms")
PY

echo "== stream one day of events through POST /ingest (loadgen event mode)"
python -m repro loadgen "$BASE" --mode ingest --data "$DATA" \
    --days 1 --first-day 7 --out "$INGEST_REPORT"

echo "== BENCH_ingest_load.json carries throughput and the closed day"
python - "$INGEST_REPORT" <<'PY'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
assert doc["mode"] == "ingest", doc
assert doc["accepted"] > 0, doc
assert doc["errors"] == 0, doc
assert doc["closed_days"] == 1, doc
assert doc["events_per_second"] > 0, doc
print(f"   {doc['accepted']} events in {doc['batches']} batches at "
      f"{doc['events_per_second']:.0f}/s, 1 day closed")
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
assert set(subsystems) == {"tsdb", "traces", "profiler", "ingest"}, subsystems
for name, block in subsystems.items():
    assert block["enabled"] is True, (name, block)
    assert "segments" in block and "last_flush_age_seconds" in block, block
ingest = subsystems["ingest"]
assert ingest["open_day"] == 8, ingest
assert ingest["pending_rows"] == 0, ingest
assert ingest["staleness_seconds"] == 0.0, ingest
assert ingest["snapshots"] >= 1, ingest
assert subsystems["profiler"]["running"] is True, subsystems
print("   open day " + str(ingest["open_day"]) + ", "
      + str(ingest["accepted"]) + " accepted, snapshot published")
'

echo "== GET /profile is non-empty after the load"
curl -fsS "$BASE/profile" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["enabled"] is True, doc
assert doc["samples"] > 0, doc
assert doc["total"] > 0, doc
assert doc["top"], doc
print("   " + str(doc["total"]) + " thread samples, hottest: "
      + doc["top"][0]["frame"])
'
curl -fsS "$BASE/profile?format=collapsed" | grep ";" >/dev/null \
    || { echo "collapsed export is empty"; exit 1; }
curl -fsS "$BASE/profile?format=speedscope" | python -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["$schema"].endswith("file-format-schema.json"), doc
assert doc["profiles"][0]["weights"], doc
print("   speedscope export has " + str(len(doc["shared"]["frames"]))
      + " frames")
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

echo "== repro top renders the alerts, ingest, and hottest-frames panels"
TOP_OUT="$(python -m repro top --url "$BASE/metrics" --iterations 1 --no-clear)"
grep -q "alerts (SLO)" <<<"$TOP_OUT" || { echo "missing alerts panel"; exit 1; }
grep -q "live ingest" <<<"$TOP_OUT" || { echo "missing ingest panel"; exit 1; }
grep -q "hottest frames" <<<"$TOP_OUT" || { echo "missing profile panel"; exit 1; }

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

echo "== repro prof replays the persisted profile segments offline"
ls "$PROF"/prof-*.ndjson >/dev/null
python -m repro prof ls --prof-dir "$PROF" | grep "pw-" >/dev/null \
    || { echo "no persisted profile windows"; exit 1; }
python -m repro prof show --prof-dir "$PROF" | grep ";" >/dev/null \
    || { echo "offline merged flamegraph is empty"; exit 1; }

echo "== a forced SLO PAGE carries a resolvable profile exemplar"
STRICT_SLO="$WORK/strict-slo.yaml"
cat > "$STRICT_SLO" <<'YAML'
slos:
  - name: availability-strict
    kind: availability
    objective: 0.999
min_requests: 1
YAML
PROF2="$WORK/prof-page"
LOG2="$WORK/serve-page.log"
python -m repro serve --data "$DATA" --model "$MODEL" --port 0 \
    --slo "$STRICT_SLO" --sample-interval 0.5 \
    --prof --prof-dir "$PROF2" >"$LOG2" 2>&1 &
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
# burn the availability budget: a batch of malformed queries 400s
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
assert entry["exemplar_profile_id"], entry
print(entry["exemplar_profile_id"])
')"
echo "   paged with profile exemplar $EXEMPLAR"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "page-scenario serve failed"; cat "$LOG2"; exit 1; }
SERVE_PID=""

echo "== repro prof show resolves the exemplar to a non-empty flamegraph"
SHOW_OUT="$(python -m repro prof show "$EXEMPLAR" --prof-dir "$PROF2")"
grep -q "profile window $EXEMPLAR" <<<"$SHOW_OUT" \
    || { echo "exemplar window missing offline"; exit 1; }
grep -q "\[pinned\]" <<<"$SHOW_OUT" \
    || { echo "exemplar window not pinned"; exit 1; }
grep -q ";" <<<"$SHOW_OUT" \
    || { echo "exemplar flamegraph is empty"; exit 1; }
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
