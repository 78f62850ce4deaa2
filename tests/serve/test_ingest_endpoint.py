"""HTTP contract tests for ``POST /ingest`` (the live-forest endpoint)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.ingest import IngestEngine
from repro.ingest.contract import render_ndjson
from repro.serve import QueryServer, ServeApp

from tests.reference.promtext import parse_prometheus_text
from .conftest import BUILD_DAYS


def _request(base, path, data=None, method=None, headers=None):
    req = urllib.request.Request(
        base + path, data=data, headers=headers or {}, method=method
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _error_status(fn):
    with pytest.raises(urllib.error.HTTPError) as err:
        fn()
    return err.value.code


@pytest.fixture()
def ingest_server(served_model, small_sim, tmp_path):
    """A live server with ingest enabled over its own engine instance.

    The engine is loaded directly (not through the process-wide cache)
    because these tests install new days into it.
    """
    registry = obs.MetricsRegistry(span_limit=10_000)
    with obs.activate(registry):
        engine = AnalysisEngine.load(
            served_model.model,
            small_sim.network,
            small_sim.districts(),
            config=EngineConfig(),
        )
        ingest = IngestEngine(engine, max_batch_rows=500)
        snaps = tmp_path / "snaps"
        app = ServeApp(
            engine,
            digest="test",
            model_dir=served_model.model,
            ingest_engine=ingest,
            ingest_snapshot_dir=snaps,
        )
        server = QueryServer(app, port=0)
        server.start_background()
        try:
            yield type(
                "T",
                (),
                {
                    "base": server.url(),
                    "app": app,
                    "ingest": ingest,
                    "engine": engine,
                    "snaps": snaps,
                },
            )
        finally:
            assert server.stop(timeout=10)


def _rows(engine, day, count=3):
    # severities well above delta_s, so the streamed cluster clears the
    # query endpoint's significance filter
    sensor = sorted(s.sensor_id for s in engine.network)[0]
    base = day * engine.window_spec.windows_per_day
    return [(sensor, base + i, 100.0 + i) for i in range(count)]


class TestIngestEndpoint:
    def test_ndjson_batch_accepted(self, ingest_server):
        rows = _rows(ingest_server.engine, BUILD_DAYS)
        status, doc = _request(
            ingest_server.base,
            "/ingest",
            data=render_ndjson(rows),
            headers={"Content-Type": "application/x-ndjson"},
        )
        assert status == 200
        assert doc["accepted"] == len(rows)
        assert doc["rejected"] == 0
        assert doc["open_day"] == BUILD_DAYS
        assert doc["closed_days"] == []
        assert doc["built_days"] == BUILD_DAYS
        assert "request_id" in doc

    def test_json_document_form(self, ingest_server):
        rows = _rows(ingest_server.engine, BUILD_DAYS)
        events = [
            {"sensor": s, "window": w, "severity": sev} for s, w, sev in rows
        ]
        status, doc = _request(
            ingest_server.base,
            "/ingest",
            data=json.dumps({"events": events}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert doc["accepted"] == len(rows)

    def test_contract_violations_counted_not_fatal(self, ingest_server):
        rows = _rows(ingest_server.engine, BUILD_DAYS, count=2)
        body = render_ndjson(rows) + b'{"sensor": -1, "window": 1, "severity": 1}\n'
        status, doc = _request(ingest_server.base, "/ingest", data=body)
        assert status == 200
        assert doc["accepted"] == 2
        assert doc["rejected"] == 1
        assert doc["rejections"] == {"bad-sensor": 1}
        assert ingest_server.ingest.rejected_totals["bad-sensor"] == 1

    def test_unusable_envelope_is_400(self, ingest_server):
        assert (
            _error_status(
                lambda: _request(
                    ingest_server.base,
                    "/ingest",
                    data=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
            )
            == 400
        )

    def test_get_is_405(self, ingest_server):
        assert (
            _error_status(
                lambda: _request(ingest_server.base, "/ingest", method="GET")
            )
            == 405
        )

    def test_not_enabled_is_404(self, live_server):
        assert (
            _error_status(
                lambda: _request(live_server.base, "/ingest", data=b"")
            )
            == 404
        )

    def test_oversized_batch_is_429(self, ingest_server):
        sensor = sorted(
            s.sensor_id for s in ingest_server.engine.network
        )[0]
        base = BUILD_DAYS * ingest_server.engine.window_spec.windows_per_day
        rows = [(sensor, base, 1.0)] * 501
        assert (
            _error_status(
                lambda: _request(
                    ingest_server.base, "/ingest", data=render_ndjson(rows)
                )
            )
            == 429
        )

    def test_flush_closes_day_and_publishes_snapshot(self, ingest_server):
        rows = _rows(ingest_server.engine, BUILD_DAYS)
        status, doc = _request(
            ingest_server.base, "/ingest?flush=1", data=render_ndjson(rows)
        )
        assert status == 200
        assert doc["closed_days"] == [BUILD_DAYS]
        assert doc["open_day"] == BUILD_DAYS + 1
        assert doc["built_days"] == BUILD_DAYS + 1
        assert doc["staleness_seconds"] == 0.0
        # the day close published an atomic snapshot
        assert doc["snapshot"].endswith("model-000001")
        assert (ingest_server.snaps / "current").exists()

        # the new day is queryable immediately after the close
        status, result = _request(
            ingest_server.base,
            "/query",
            data=json.dumps({"first_day": BUILD_DAYS, "days": 1}).encode(),
        )
        assert status == 200
        assert result["returned"] >= 1

    def test_healthz_reports_ingest_subsystem(self, ingest_server):
        rows = _rows(ingest_server.engine, BUILD_DAYS)
        _request(ingest_server.base, "/ingest", data=render_ndjson(rows))
        status, doc = _request(ingest_server.base, "/healthz")
        assert status == 200
        ingest = doc["subsystems"]["ingest"]
        assert ingest["enabled"] is True
        assert ingest["open_day"] == BUILD_DAYS
        assert ingest["accepted"] == len(rows)
        assert ingest["pending_rows"] == len(rows)

    def test_metrics_exported(self, ingest_server):
        rows = _rows(ingest_server.engine, BUILD_DAYS)
        _request(ingest_server.base, "/ingest", data=render_ndjson(rows))
        with urllib.request.urlopen(
            ingest_server.base + "/metrics", timeout=10
        ) as resp:
            parsed = parse_prometheus_text(resp.read().decode())
        assert parsed["counters"]["repro_ingest_events_accepted_total"] == len(
            rows
        )
        assert parsed["gauges"]["repro_ingest_pending_rows"] == len(rows)
