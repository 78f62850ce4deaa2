"""The process-wide loaded-model cache: digest keying, hit/miss metrics."""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.storage.model_cache import (
    MODEL_FILES,
    clear_model_cache,
    load_engine_cached,
    model_digest,
)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory, small_sim):
    engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
    engine.build_from_simulator(small_sim, range(3))
    model = tmp_path_factory.mktemp("model-cache") / "model"
    engine.save(model)
    return model


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_model_cache()
    yield
    clear_model_cache()


class TestModelDigest:
    def test_digest_is_stable(self, saved_model):
        assert model_digest(saved_model) == model_digest(saved_model)

    def test_digest_tracks_file_content(self, saved_model):
        before = model_digest(saved_model)
        meta = saved_model / "engine.json"
        original = meta.read_bytes()
        try:
            meta.write_bytes(original + b"\n")
            assert model_digest(saved_model) != before
        finally:
            meta.write_bytes(original)
        assert model_digest(saved_model) == before

    def test_partial_model_raises(self, tmp_path):
        (tmp_path / MODEL_FILES[0]).write_bytes(b"x")
        with pytest.raises(FileNotFoundError):
            model_digest(tmp_path)


class TestLoadEngineCached:
    def test_second_load_is_a_hit(self, saved_model, small_sim):
        config = EngineConfig()
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            first = load_engine_cached(
                saved_model, small_sim.network, small_sim.districts(), config
            )
            second = load_engine_cached(
                saved_model, small_sim.network, small_sim.districts(), config
            )
        assert second.engine is first.engine
        assert second.query_lock is first.query_lock
        snap = registry.snapshot()
        assert snap["counters"]["model_cache.misses"] == 1
        assert snap["counters"]["model_cache.hits"] == 1
        assert any(
            s["name"] == "model_cache.load" for s in snap["spans"]
        )

    def test_config_change_is_a_miss(self, saved_model, small_sim):
        a = load_engine_cached(
            saved_model, small_sim.network, small_sim.districts(), EngineConfig()
        )
        b = load_engine_cached(
            saved_model,
            small_sim.network,
            small_sim.districts(),
            EngineConfig(similarity_threshold=0.6),
        )
        assert a.engine is not b.engine
        assert clear_model_cache() == 2

    def test_file_change_is_a_miss(self, saved_model, small_sim):
        config = EngineConfig()
        a = load_engine_cached(
            saved_model, small_sim.network, small_sim.districts(), config
        )
        meta = saved_model / "engine.json"
        original = meta.read_bytes()
        try:
            meta.write_bytes(original + b"\n")
            b = load_engine_cached(
                saved_model, small_sim.network, small_sim.districts(), config
            )
        finally:
            meta.write_bytes(original)
        assert a.engine is not b.engine
        assert a.digest != b.digest

    def test_clear_reports_evictions(self, saved_model, small_sim):
        load_engine_cached(
            saved_model, small_sim.network, small_sim.districts(), EngineConfig()
        )
        assert clear_model_cache() == 1
        assert clear_model_cache() == 0
