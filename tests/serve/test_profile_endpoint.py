"""GET /profile, retired with the continuous profiler, and the /healthz
subsystems block it used to sit in."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.obs.tracestore import TailSampler, TraceStore
from repro.serve import ServeApp

from .conftest import BUILD_DAYS

QUERY_BODY = json.dumps({"first_day": 0, "days": BUILD_DAYS}).encode()


@pytest.fixture(scope="module")
def built_engine(small_sim):
    engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
    engine.build_from_simulator(small_sim, range(BUILD_DAYS))
    return engine


class TestProfileEndpoint:
    def test_404_when_profiling_off(self, built_engine):
        # profiling is always off now: no profiler argument, no route
        with pytest.raises(TypeError):
            ServeApp(built_engine, profiler=object())
        app = ServeApp(built_engine)
        status, ctype, payload, _ = app.dispatch("GET", "/profile", {}, b"")
        assert status == 404 and ctype.startswith("application/json")
        assert json.loads(payload)["error"] == "no such endpoint: /profile"


class TestHealthzSubsystems:
    def test_uniform_shape_when_everything_off(self, built_engine):
        app = ServeApp(built_engine)
        status, _, payload, _ = app.dispatch("GET", "/healthz", {}, b"")
        assert status == 200
        subsystems = json.loads(payload)["subsystems"]
        assert set(subsystems) == {"tsdb", "traces", "ingest"}
        for block in subsystems.values():
            assert block["enabled"] is False
            assert block["segments"] == 0
            assert block["last_flush_age_seconds"] is None

    def test_traces_block_counts_segments(self, built_engine, tmp_path):
        with obs.activate(obs.MetricsRegistry(span_limit=10_000)):
            app = ServeApp(
                built_engine,
                trace_store=TraceStore(segment_dir=tmp_path),
                tail_sampler=TailSampler(latency_threshold=0.0, head_rate=1),
            )
            app.dispatch("POST", "/query", {}, QUERY_BODY)
            _, _, payload, _ = app.dispatch("GET", "/healthz", {}, b"")
        block = json.loads(payload)["subsystems"]["traces"]
        assert block["enabled"] is True
        assert block["kept"] >= 1
        assert block["segments"] == 1
        assert block["last_flush_age_seconds"] is not None
        assert block["last_flush_age_seconds"] < 60.0
