"""Contract, concurrency, telemetry and shutdown tests for repro serve."""

from __future__ import annotations

import io
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.serve.handlers import JSON_TYPE, METRICS_TYPE

from tests.reference.promtext import parse_prometheus_text
from .conftest import BUILD_DAYS


def _get(base: str, path: str, headers: dict | None = None):
    req = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _post(base: str, path: str, payload: dict, headers: dict | None = None):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers=headers or {},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestEndpointContracts:
    def test_healthz(self, live_server):
        status, headers, body = _get(live_server.base, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == JSON_TYPE
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["model"]["digest"] == live_server.app.model_digest
        assert doc["model"]["built_days"] == BUILD_DAYS
        assert doc["model"]["micro_clusters"] > 0
        assert doc["uptime_seconds"] >= 0
        assert doc["requests"]["in_flight"] >= 0
        assert doc["observability"] is True

        # every optional subsystem on: exactly these three report
        from repro.ingest import IngestEngine
        from repro.obs.tracestore import TraceStore
        from repro.obs.tsdb import Sampler, TimeSeriesStore
        from repro.serve.handlers import ServeApp

        engine = live_server.app.engine
        app = ServeApp(
            engine,
            trace_store=TraceStore(),
            ingest_engine=IngestEngine(engine),
            tsdb_sampler=Sampler(TimeSeriesStore()),
        )
        subsystems = app.health()["subsystems"]
        assert set(subsystems) == {"tsdb", "traces", "ingest"}
        assert all(block["enabled"] for block in subsystems.values())

    def test_metrics(self, live_server):
        _get(live_server.base, "/healthz")
        status, headers, body = _get(live_server.base, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_TYPE
        parsed = parse_prometheus_text(body.decode())
        assert parsed["counters"]["repro_serve_requests_total"] == 1
        assert "repro_serve_requests_rate" in parsed["rates"]

    def test_query(self, live_server):
        status, headers, body = _post(
            live_server.base,
            "/query",
            {"first_day": 0, "days": BUILD_DAYS, "explain": True},
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["strategy"] == "gui"
        assert doc["returned"] >= 1
        assert doc["region"] == "city"
        assert doc["report"].startswith("Significant congestion clusters")
        assert len(doc["clusters"]) >= 1
        assert {"select", "integrate"} <= {
            s["name"] for s in doc["explain"]["stages"]
        }
        assert headers["X-Request-Id"] == doc["request_id"]

    def test_query_region_subset(self, live_server):
        status, _, body = _post(
            live_server.base,
            "/query",
            {"days": 2, "sensors": [0, 1, 2, 3, 4]},
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["region"] == "request"
        assert doc["region_sensors"] == 5

    def test_trace_param_isolates_request_spans(self, live_server):
        # warm-up request so the registry holds spans from other requests
        _post(live_server.base, "/query", {"days": 2})
        status, _, body = _post(live_server.base, "/query?trace=1", {"days": 2})
        assert status == 200
        doc = json.loads(body)
        events = doc["trace"]["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans, "expected complete-span events in the trace"
        assert all(
            e["args"].get("request_id") == doc["request_id"] for e in spans
        )


class TestErrors:
    def _expect_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as err:
            fn()
        assert err.value.code == code
        doc = json.loads(err.value.read())
        assert "error" in doc and "request_id" in doc
        return doc

    def test_bad_json_is_400(self, live_server):
        req = urllib.request.Request(
            live_server.base + "/query", data=b"{nope", method="POST"
        )
        doc = self._expect_error(lambda: urllib.request.urlopen(req), 400)
        assert "not valid JSON" in doc["error"]

    def test_unknown_field_is_400(self, live_server):
        self._expect_error(
            lambda: _post(live_server.base, "/query", {"dayz": 7}), 400
        )

    def test_unknown_strategy_is_400(self, live_server):
        self._expect_error(
            lambda: _post(live_server.base, "/query", {"strategy": "magic"}), 400
        )

    def test_unbuilt_days_is_400(self, live_server):
        self._expect_error(
            lambda: _post(
                live_server.base, "/query", {"first_day": 900, "days": 7}
            ),
            400,
        )

    def test_wrong_method_is_405(self, live_server):
        self._expect_error(lambda: _get(live_server.base, "/query"), 405)

    def test_unknown_path_is_404(self, live_server):
        # /profile is the retired continuous profiler's endpoint
        for path in ("/nope", "/profile"):
            doc = self._expect_error(lambda: _get(live_server.base, path), 404)
            assert doc["error"] == f"no such endpoint: {path}"


class TestSloEndpoint:
    def _app_with_engine(self, live_server):
        from repro.obs.slo import SLO, SLOConfig, SLOEngine
        from repro.obs.tsdb import TimeSeriesStore
        from repro.serve.handlers import ServeApp

        store = TimeSeriesStore()
        store.sample_registry(live_server.registry)
        engine = SLOEngine(
            SLOConfig(
                slos=(SLO(name="avail", kind="availability", objective=0.99),)
            ),
            store,
        )
        return ServeApp(live_server.app.engine, slo_engine=engine)

    def test_404_without_config_over_http(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live_server.base, "/slo")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert "no SLO config loaded" in body["error"]

    def test_report_served_when_configured(self, live_server):
        app = self._app_with_engine(live_server)
        status, content_type, payload, _ = app.dispatch("GET", "/slo")
        assert status == 200
        assert content_type == JSON_TYPE
        doc = json.loads(payload)
        assert doc["state"] in ("OK", "WARN", "PAGE")
        assert doc["slos"][0]["name"] == "avail"
        assert {w["name"] for w in doc["slos"][0]["windows"]} == {
            "fast",
            "slow",
        }

    def test_post_is_405(self, live_server):
        app = self._app_with_engine(live_server)
        status, _, _, _ = app.dispatch("POST", "/slo", body=b"{}")
        assert status == 405

    def test_slo_report_without_engine_raises(self, live_server):
        with pytest.raises(RuntimeError):
            live_server.app.slo_report()


class TestCliParity:
    def test_query_response_matches_cli_byte_for_byte(
        self, live_server, served_model, capsys
    ):
        from repro.storage.model_cache import clear_model_cache

        # model a separate CLI process: its engine must be its own fresh
        # load, not the server's cached instance (whose cluster-id
        # generator the CLI query would otherwise advance)
        clear_model_cache()
        code = main(
            [
                "query",
                "--data", str(served_model.data),
                "--model", str(served_model.model),
                "--first-day", "0",
                "--days", str(BUILD_DAYS),
            ]
        )
        assert code == 0
        cli_out = capsys.readouterr().out
        # cmd_query prints one header line, then build_report(...).to_text()
        header, _, cli_report = cli_out.partition("\n")
        assert header.startswith("Q(city, days 0..6)")

        _, _, body = _post(
            live_server.base, "/query", {"first_day": 0, "days": BUILD_DAYS}
        )
        doc = json.loads(body)
        assert doc["report"] + "\n" == cli_report


class TestTelemetry:
    def test_concurrent_requests_count_exactly(self, live_server):
        workers, per_worker = 8, 6
        failures = []

        def work():
            for _ in range(per_worker):
                try:
                    status, _, _ = _get(live_server.base, "/healthz")
                    if status != 200:
                        failures.append(status)
                except Exception as exc:  # pragma: no cover - diagnostics
                    failures.append(repr(exc))

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        _, _, body = _get(live_server.base, "/metrics")
        parsed = parse_prometheus_text(body.decode())
        total = workers * per_worker
        # the scrape reads the registry before its own request is counted
        assert parsed["counters"]["repro_serve_requests_total"] == total
        assert parsed["counters"]["repro_serve_requests_healthz_total"] == total
        assert parsed["gauges"]["repro_serve_in_flight"] >= 0
        hist = parsed["histograms"]["repro_serve_request_seconds"]
        assert hist["count"] == total

    def test_metrics_reconcile_scripted_sequence(self, live_server):
        # scripted: 2 queries, 1 healthz, 1 forced error, 1 scrape — then
        # the assertion scrape must reconcile every counter exactly
        _post(live_server.base, "/query", {"days": 2})
        _post(live_server.base, "/query", {"days": 3})
        _get(live_server.base, "/healthz")
        with pytest.raises(urllib.error.HTTPError):
            _post(live_server.base, "/query", {"strategy": "bogus"})
        _get(live_server.base, "/metrics")

        _, _, body = _get(live_server.base, "/metrics")
        c = parse_prometheus_text(body.decode())["counters"]
        assert c["repro_serve_requests_total"] == 5
        assert c["repro_serve_requests_query_total"] == 3
        assert c["repro_serve_requests_healthz_total"] == 1
        assert c["repro_serve_requests_metrics_total"] == 1
        assert c["repro_serve_errors_total"] == 1
        assert c["repro_serve_responses_2xx_total"] == 4
        assert c["repro_serve_responses_4xx_total"] == 1
        assert c.get("repro_serve_responses_5xx_total", 0) == 0
        # health endpoint's independent accounting agrees
        health = live_server.app.health()["requests"]
        assert health["served"] == 6  # includes the assertion scrape
        assert health["errors"] == 1

    def test_stage_costs_aggregate_across_requests(self, live_server):
        for _ in range(2):
            _post(live_server.base, "/query", {"days": 2})
        snap = live_server.registry.snapshot()
        stage_hists = {
            name: h
            for name, h in snap["histograms"].items()
            if name.startswith("query.stage.")
        }
        assert "query.stage.select_seconds" in stage_hists
        assert "query.stage.integrate_seconds" in stage_hists
        for hist in stage_hists.values():
            assert hist["count"] == 2

    def test_correlation_id_reaches_spans_and_logs(self, live_server):
        stream = io.StringIO()
        obs.configure_logging("info", stream=stream)
        try:
            status, headers, body = _post(
                live_server.base,
                "/query",
                {"days": 2},
                headers={"X-Request-Id": "req-test-abc"},
            )
        finally:
            obs.configure_logging("warning", stream=sys.__stderr__)
        assert status == 200
        assert headers["X-Request-Id"] == "req-test-abc"
        assert json.loads(body)["request_id"] == "req-test-abc"

        tagged = [
            s
            for s in live_server.registry.spans
            if s.attrs.get("request_id") == "req-test-abc"
        ]
        assert any(s.name == "query.run" for s in tagged)

        log_lines = [
            line
            for line in stream.getvalue().splitlines()
            if "request_id=req-test-abc" in line
        ]
        assert any("logger=repro.serve.access" in line for line in log_lines)
        assert any("status=200" in line for line in log_lines)

    def test_span_limit_bounds_registry(self, live_server):
        assert live_server.registry._span_limit == 10_000


class TestShutdown:
    def test_stop_drains_in_flight_requests(self, live_server, monkeypatch):
        app = live_server.app
        original = app.health
        release = threading.Event()

        def slow_health():
            release.wait(5)
            return original()

        monkeypatch.setattr(app, "health", slow_health)
        results = []

        def request():
            results.append(_get(live_server.base, "/healthz")[0])

        t = threading.Thread(target=request)
        t.start()
        time.sleep(0.2)  # let the request reach the slow handler

        stopper_done = threading.Event()

        def stop():
            live_server.server.stop(timeout=10)
            stopper_done.set()

        threading.Thread(target=stop).start()
        time.sleep(0.2)
        release.set()  # unblock the in-flight request
        t.join(10)
        assert stopper_done.wait(10)
        # the in-flight request completed despite the shutdown racing it
        assert results == [200]

    def test_new_connections_refused_after_stop(self, live_server):
        assert live_server.server.stop(timeout=10)
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(live_server.base, "/healthz")


class TestCliParser:
    def test_serve_arguments_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--data", "d",
                "--model", "m",
                "--port", "0",
                "--span-limit", "500",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.span_limit == 500
        assert args.log_level == "info"  # serve defaults to access logging

    def test_top_arguments_parse(self, capsys):
        # `repro top` is retired: /metrics, /healthz and /slo answer it
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["top", "--url", "http://x/metrics", "--iterations", "3", "--no-clear"]
            )
        assert exc.value.code == 2
        assert "invalid choice: 'top'" in capsys.readouterr().err
