"""Tail-sampled tracing through the serving stack: capture, /traces,
content negotiation, gzip, request-id hygiene, SLO exemplars, CLI."""

from __future__ import annotations

import gzip
import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.cli import build_parser, main
from repro.obs.slo import SLO, SLOConfig, SLOEngine, check_doc
from repro.obs.tracestore import TailSampler, TraceRecord, TraceStore
from repro.obs.tsdb import TimeSeriesStore
from repro.serve import ServeApp
from repro.serve.context import sanitize_request_id

from tests.reference.promtext import parse_prometheus_text
from .conftest import BUILD_DAYS

QUERY_BODY = json.dumps({"first_day": 0, "days": BUILD_DAYS}).encode()


@pytest.fixture(scope="module")
def built_engine(small_sim):
    engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
    engine.build_from_simulator(small_sim, range(BUILD_DAYS))
    return engine


@pytest.fixture()
def traced_app(built_engine):
    """An in-process app with a keep-everything sampler, registry active."""
    registry = obs.MetricsRegistry(span_limit=10_000)
    with obs.activate(registry):
        store = TraceStore()
        app = ServeApp(
            built_engine,
            trace_store=store,
            tail_sampler=TailSampler(latency_threshold=0.0, head_rate=1),
        )
        yield app


class TestSanitizeRequestId:
    def test_clean_id_unchanged(self):
        assert sanitize_request_id("req-test-abc") == "req-test-abc"

    def test_hostile_characters_dropped(self):
        hostile = 'req\n500 injected="yes"\r x'
        assert sanitize_request_id(hostile) == "req500injectedyesx"

    def test_clamped_to_max_length(self):
        assert sanitize_request_id("a" * 200) == "a" * 64

    def test_nothing_valid_becomes_none(self):
        assert sanitize_request_id("\n\r<>!") is None
        assert sanitize_request_id("") is None
        assert sanitize_request_id(None) is None


class TestCapturePipeline:
    def test_kept_request_lands_in_store_with_spans(self, traced_app):
        status, _, _, rid = traced_app.dispatch(
            "POST", "/query", {}, QUERY_BODY, request_id="req-keep-1"
        )
        assert status == 200 and rid == "req-keep-1"
        record = traced_app.trace_store.get("req-keep-1")
        assert record is not None
        assert record.endpoint == "query"
        assert record.status == 200
        assert "head" in record.reasons
        names = {s["name"] for s in record.spans}
        assert "serve.request" in names and "query.run" in names
        # every captured span belongs to this request
        assert all(
            s["attrs"].get("request_id") == "req-keep-1" for s in record.spans
        )

    def test_error_kept_even_when_sampler_would_drop(self, built_engine):
        with obs.activate(obs.MetricsRegistry(span_limit=10_000)):
            app = ServeApp(
                built_engine,
                trace_store=TraceStore(),
                tail_sampler=TailSampler(latency_threshold=-1.0, head_rate=0),
            )
            status, _, _, rid = app.dispatch("POST", "/query", {}, b"{not json")
            assert status == 400
            record = app.trace_store.get(rid)
            assert record is not None and record.reasons == ("error",)

    def test_fast_clean_request_dropped(self, built_engine):
        with obs.activate(obs.MetricsRegistry(span_limit=10_000)):
            app = ServeApp(
                built_engine,
                trace_store=TraceStore(),
                tail_sampler=TailSampler(latency_threshold=30.0, head_rate=0),
            )
            status, _, _, rid = app.dispatch("GET", "/healthz", {}, b"")
            assert status == 200
            assert app.trace_store.get(rid) is None
            assert len(app.trace_store) == 0
            registry = obs.registry()
            snapshot = registry.snapshot()
            assert snapshot["counters"]["trace.requests"] == 1
            assert snapshot["counters"]["trace.dropped"] == 1

    def test_no_capture_without_store(self, built_engine):
        with obs.activate(obs.MetricsRegistry(span_limit=10_000)):
            app = ServeApp(built_engine)
            status, _, _, _ = app.dispatch("GET", "/healthz", {}, b"")
            assert status == 200
            assert app.trace_store is None
            snapshot = obs.registry().snapshot()
            assert "trace.requests" not in snapshot["counters"]


class TestTracesEndpoint:
    def test_document_shape(self, traced_app):
        traced_app.dispatch(
            "POST", "/query", {}, QUERY_BODY, request_id="req-t-1"
        )
        status, ctype, payload, _ = traced_app.dispatch(
            "GET", "/traces", {"sort": "duration", "limit": "5"}, b""
        )
        assert status == 200 and ctype.startswith("application/json")
        doc = json.loads(payload)
        assert doc["version"] == 1
        assert doc["sort"] == "duration"
        assert doc["kept"] >= 1 and doc["count"] >= 1
        row = doc["traces"][0]
        assert isinstance(row["spans"], int)  # summaries, not span trees
        assert {"request_id", "endpoint", "status", "seconds", "reasons"} <= set(row)

    def test_sort_recent(self, traced_app):
        traced_app.dispatch("GET", "/healthz", {}, b"", request_id="req-r-1")
        traced_app.dispatch("GET", "/healthz", {}, b"", request_id="req-r-2")
        _, _, payload, _ = traced_app.dispatch(
            "GET", "/traces", {"sort": "recent", "limit": "2"}, b""
        )
        ids = [t["request_id"] for t in json.loads(payload)["traces"]]
        # the /traces request itself is not yet captured when it renders
        assert ids == ["req-r-2", "req-r-1"]

    def test_bad_params_are_400(self, traced_app):
        for params in ({"limit": "zero"}, {"sort": "sideways"}):
            status, _, payload, _ = traced_app.dispatch(
                "GET", "/traces", params, b""
            )
            assert status == 400, params
            assert "error" in json.loads(payload)

    def test_post_is_405(self, traced_app):
        status, _, _, _ = traced_app.dispatch("POST", "/traces", {}, b"{}")
        assert status == 405

    def test_404_without_store(self, built_engine):
        with obs.activate(obs.MetricsRegistry(span_limit=10_000)):
            app = ServeApp(built_engine)
            status, _, payload, _ = app.dispatch("GET", "/traces", {}, b"")
            assert status == 404
            assert "tracing is not enabled" in json.loads(payload)["error"]

    def test_over_http(self, live_server):
        # live_server has no trace store: the endpoint 404s over the wire
        req = urllib.request.Request(live_server.base + "/traces")
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404


class TestContentNegotiation:
    def test_default_metrics_still_prometheus_parseable(self, traced_app):
        traced_app.dispatch("POST", "/query", {}, QUERY_BODY)
        status, ctype, payload, _ = traced_app.dispatch(
            "GET", "/metrics", {}, b""
        )
        assert status == 200
        assert "openmetrics" not in ctype
        parsed = parse_prometheus_text(payload.decode())
        assert "repro_serve_requests_total" in parsed["counters"]
        assert "# EOF" not in payload.decode()

    def test_openmetrics_needs_accept_header(self, traced_app):
        traced_app.dispatch(
            "POST", "/query", {}, QUERY_BODY, request_id="req-om-1"
        )
        status, ctype, payload, _ = traced_app.dispatch(
            "GET",
            "/metrics",
            {},
            b"",
            headers={"Accept": "application/openmetrics-text"},
        )
        assert status == 200
        assert ctype.startswith("application/openmetrics-text")
        text = payload.decode()
        assert text.endswith("# EOF\n")
        exemplar_lines = [l for l in text.splitlines() if "# {trace_id=" in l]
        assert exemplar_lines, "histogram buckets should carry exemplars"
        assert any('trace_id="req-om-1"' in l for l in exemplar_lines)

    def test_gzip_negotiated_on_eligible_paths(self, traced_app):
        traced_app.dispatch("POST", "/query", {}, QUERY_BODY)
        response = traced_app.respond(
            "GET", "/metrics", {}, b"", headers={"Accept-Encoding": "gzip"}
        )
        assert response.headers.get("Content-Encoding") == "gzip"
        assert response.headers.get("Vary") == "Accept-Encoding"
        assert b"repro_serve_requests" in gzip.decompress(response.payload)

    def test_gzip_skipped_without_header_or_on_other_paths(self, traced_app):
        plain = traced_app.respond("GET", "/metrics", {}, b"", headers={})
        assert "Content-Encoding" not in plain.headers
        health = traced_app.respond(
            "GET", "/healthz", {}, b"", headers={"Accept-Encoding": "gzip"}
        )
        assert "Content-Encoding" not in health.headers

    def test_gzip_respects_qvalue_zero(self, traced_app):
        response = traced_app.respond(
            "GET", "/metrics", {}, b"", headers={"Accept-Encoding": "gzip;q=0"}
        )
        assert "Content-Encoding" not in response.headers

    def test_gzip_over_http(self, live_server):
        with urllib.request.urlopen(live_server.base + "/healthz", timeout=10):
            pass
        req = urllib.request.Request(
            live_server.base + "/metrics",
            headers={"Accept-Encoding": "gzip"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers["Content-Encoding"] == "gzip"
            body = gzip.decompress(resp.read())
        assert b"repro_serve_requests_total" in body


class TestSLOExemplars:
    @staticmethod
    def _paging_engine(trace_store):
        config = SLOConfig(
            slos=(SLO(name="availability", kind="availability", objective=0.99),)
        )
        store = TimeSeriesStore()
        t0 = 1_700_000_000.0
        req = err = 0.0
        for minute in range(120):
            req += 60.0
            err += 30.0
            store.ingest(
                {
                    "t": t0 + (minute + 1) * 60.0,
                    "series": {"serve.requests": req, "serve.errors": err},
                    "kinds": {
                        "serve.requests": "counter",
                        "serve.errors": "counter",
                    },
                }
            )
        return SLOEngine(config, store, trace_store=trace_store), t0 + 7200

    def test_page_alert_carries_errored_trace_ids(self):
        traces = TraceStore()
        for i in range(3):
            traces.add(
                TraceRecord(
                    request_id=f"req-err-{i}",
                    endpoint="query",
                    status=500,
                    seconds=0.01,
                    start=float(i),
                    reasons=("error",),
                ),
                persist=False,
            )
        engine, now = self._paging_engine(traces)
        doc = engine.evaluate(now=now).to_dict()
        entry = doc["slos"][0]
        assert entry["state"] == "PAGE"
        assert "req-err-2" in entry["exemplar_trace_ids"]
        code, lines = check_doc(doc)
        assert code == 1
        assert any("exemplars: " in line for line in lines)

    def test_ok_slo_carries_no_exemplars(self):
        traces = TraceStore()
        traces.add(
            TraceRecord(
                request_id="req-x",
                endpoint="query",
                status=500,
                seconds=0.01,
                start=0.0,
                reasons=("error",),
            ),
            persist=False,
        )
        config = SLOConfig(
            slos=(SLO(name="availability", kind="availability", objective=0.99),)
        )
        store = TimeSeriesStore()
        t0 = 1_700_000_000.0
        req = 0.0
        for minute in range(120):
            req += 60.0
            store.ingest(
                {
                    "t": t0 + (minute + 1) * 60.0,
                    "series": {"serve.requests": req, "serve.errors": 0.0},
                    "kinds": {
                        "serve.requests": "counter",
                        "serve.errors": "counter",
                    },
                }
            )
        engine = SLOEngine(config, store, trace_store=traces)
        doc = engine.evaluate(now=t0 + 7200).to_dict()
        assert doc["slos"][0]["state"] == "OK"
        assert doc["slos"][0]["exemplar_trace_ids"] == []

    def test_page_exemplar_resolves_through_trace_cli(self, tmp_path, capsys):
        """Acceptance: a PAGE alert's exemplar id resolves via repro trace
        show against the persisted trace directory."""
        trace_dir = tmp_path / "traces"
        traces = TraceStore(segment_dir=trace_dir)
        traces.add(
            TraceRecord(
                request_id="req-rootcause",
                endpoint="query",
                status=500,
                seconds=0.8,
                start=12.0,
                reasons=("error", "slow"),
                spans=[
                    {"id": 1, "parent": -1, "name": "serve.request",
                     "depth": 0, "start": 0.0, "seconds": 0.8,
                     "attrs": {"request_id": "req-rootcause"}},
                    {"id": 2, "parent": 1, "name": "query.run", "depth": 1,
                     "start": 0.1, "seconds": 0.7,
                     "attrs": {"request_id": "req-rootcause"}},
                ],
            )
        )
        engine, now = self._paging_engine(traces)
        doc = engine.evaluate(now=now).to_dict()
        exemplars = doc["slos"][0]["exemplar_trace_ids"]
        assert doc["slos"][0]["state"] == "PAGE" and exemplars
        code = main(
            ["trace", "show", exemplars[0], "--trace-dir", str(trace_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace req-rootcause" in out
        assert "query.run" in out


class TestTraceCLI:
    def _seed_store(self, tmp_path):
        trace_dir = tmp_path / "traces"
        store = TraceStore(segment_dir=trace_dir)
        for i, seconds in enumerate([0.3, 0.1, 0.6]):
            store.add(
                TraceRecord(
                    request_id=f"req-cli-{i}",
                    endpoint="query",
                    status=200 if i else 500,
                    seconds=seconds,
                    start=float(i),
                    reasons=("slow",),
                    spans=[
                        {"id": 1, "parent": -1, "name": "serve.request",
                         "depth": 0, "start": 0.0, "seconds": seconds,
                         "attrs": {}},
                    ],
                )
            )
        return trace_dir

    def test_parser_accepts_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["trace", "ls", "--trace-dir", "t", "--sort", "recent", "--limit", "3"]
        )
        assert args.trace_command == "ls" and args.sort == "recent"
        args = parser.parse_args(["trace", "show", "req-1", "--trace-dir", "t"])
        assert args.trace_command == "show" and args.request_id == "req-1"
        args = parser.parse_args(["trace", "profile", "--trace-dir", "t"])
        assert args.trace_command == "profile" and args.limit is None
        args = parser.parse_args(
            ["trace", "export", "req-1", "--trace-dir", "t", "--out", "o.json"]
        )
        assert args.trace_command == "export"

    def test_serve_tracing_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--data", "d", "--model", "m",
                "--trace-dir", "traces",
                "--trace-threshold", "0.1",
                "--trace-head-sample", "5",
            ]
        )
        assert str(args.trace_dir) == "traces"
        assert args.trace_threshold == 0.1
        assert args.trace_head_sample == 5
        defaults = build_parser().parse_args(
            ["serve", "--data", "d", "--model", "m"]
        )
        assert defaults.trace_dir is None
        assert defaults.trace_threshold == 0.5
        assert defaults.trace_head_sample == 10

    def test_ls_sorts_by_duration(self, tmp_path, capsys):
        trace_dir = self._seed_store(tmp_path)
        assert main(["trace", "ls", "--trace-dir", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if "req-cli-" in l]
        assert "req-cli-2" in rows[0] and "req-cli-1" in rows[-1]

    def test_show_renders_tree(self, tmp_path, capsys):
        trace_dir = self._seed_store(tmp_path)
        assert main(["trace", "show", "req-cli-0", "--trace-dir", str(trace_dir)]) == 0
        assert "serve.request" in capsys.readouterr().out

    def test_profile_aggregates(self, tmp_path, capsys):
        trace_dir = self._seed_store(tmp_path)
        assert main(["trace", "profile", "--trace-dir", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "count" in out

    def test_export_writes_chrome_trace(self, tmp_path, capsys):
        trace_dir = self._seed_store(tmp_path)
        out_path = tmp_path / "chrome.json"
        code = main(
            ["trace", "export", "req-cli-1", "--trace-dir", str(trace_dir),
             "--out", str(out_path)]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert any(e.get("name") == "serve.request" for e in doc["traceEvents"])

    def test_unknown_id_exits_2(self, tmp_path, capsys):
        trace_dir = self._seed_store(tmp_path)
        assert main(["trace", "show", "nope", "--trace-dir", str(trace_dir)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        code = main(["trace", "ls", "--trace-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
