"""The pipeline feeds the registry the same numbers its results carry."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis.engine import AnalysisEngine
from repro.core.integration import ClusterIntegrator, SimilarityCache
from repro.core.records import RecordBatch
from repro.core.streaming import OnlineEventTracker
from tests.reference.scalar import synthetic_micro_clusters


class TestIntegrationParity:
    """Satellite: registry counters mirror the legacy result attributes."""

    @pytest.mark.parametrize("method", ["indexed", "naive"])
    def test_counters_match_result_and_cache(self, registry, method):
        clusters = synthetic_micro_clusters(num_clusters=40, seed=3)
        integrator = ClusterIntegrator(0.5, "avg", method)
        cache = SimilarityCache()
        result = integrator.integrate(clusters, cache=cache)

        assert registry.counter("integration.runs").value == 1
        assert registry.counter("integration.merges").value == result.merges
        assert (
            registry.counter("integration.comparisons").value
            == result.comparisons
        )
        assert (
            registry.counter("integration.fast_rejects").value
            == result.fast_rejects
        )
        assert registry.counter("similarity.cache.hits").value == cache.hits
        assert (
            registry.counter("similarity.cache.misses").value == cache.misses
        )

    def test_fixpoint_span_attrs(self, registry):
        clusters = synthetic_micro_clusters(num_clusters=40, seed=3)
        result = ClusterIntegrator(0.5, "avg", "indexed").integrate(clusters)
        record = next(s for s in registry.spans if s.name == "integrate.fixpoint")
        assert record.attrs["method"] == "indexed"
        assert record.attrs["input_clusters"] == 40
        assert record.attrs["output_clusters"] == len(result.clusters)
        assert record.attrs["merges"] == result.merges

    def test_kernel_counters_recorded(self, registry):
        clusters = synthetic_micro_clusters(num_clusters=40, seed=3)
        ClusterIntegrator(0.5, "avg", "indexed").integrate(clusters)
        assert registry.counter("kernels.batch_calls").value > 0
        assert (
            registry.histogram("kernels.batch_size").count
            == registry.counter("kernels.batch_calls").value
        )


class TestStreamingGauges:
    def test_open_closed_and_merge_counts(self, registry, small_sim):
        chunk = small_sim.simulate_day(0)
        mask = chunk.atypical_mask()
        batch = RecordBatch(
            chunk.sensor_ids[mask],
            chunk.windows[mask],
            chunk.congested[mask].astype(np.float64),
        )
        tracker = OnlineEventTracker(small_sim.network)
        closed = []
        for window in np.unique(batch.windows):
            sel = batch.windows == window
            closed += tracker.push_window(
                int(window),
                RecordBatch(
                    batch.sensor_ids[sel],
                    batch.windows[sel],
                    batch.severities[sel],
                ),
            )
        closed += tracker.flush()

        assert registry.counter("streaming.records").value == len(batch)
        assert registry.counter("streaming.events.closed").value == len(closed)
        assert registry.gauge("streaming.events.open").value == 0
        opened = registry.counter("streaming.events.opened").value
        merged = registry.counter("streaming.events.merged").value
        # every opened event is either merged away or eventually closed
        assert opened == merged + len(closed)


class TestPipelineSpans:
    def test_build_and_query_span_tree(self, registry, small_sim, small_batches):
        engine = AnalysisEngine.from_simulator(small_sim)
        for day in range(2):
            engine.add_day_records(day, small_batches[day])
        result = engine.query(engine.whole_city(), 0, 2, strategy="gui")

        names = {s.name for s in registry.spans}
        assert {
            "extract.day",
            "query.run",
            "query.select",
            "query.redzone",
            "query.integrate",
            "integrate.fixpoint",
        } <= names

        run = next(s for s in registry.spans if s.name == "query.run")
        integrate = next(
            s for s in registry.spans if s.name == "query.integrate"
        )
        assert integrate.parent_id == run.span_id
        assert run.attrs["strategy"] == "gui"
        assert run.attrs["returned"] == len(result.returned)
        assert (
            registry.counter("extract.records").value
            == len(small_batches[0]) + len(small_batches[1])
        )
        assert registry.counter("query.runs").value == 1

    def test_query_counters_match_stats(self, registry, small_sim, small_batches):
        engine = AnalysisEngine.from_simulator(small_sim)
        for day in range(2):
            engine.add_day_records(day, small_batches[day])
        result = engine.query(engine.whole_city(), 0, 2, strategy="gui")
        stats = result.stats
        assert (
            registry.counter("query.input_clusters").value
            == stats.input_clusters
        )
        assert (
            registry.counter("query.pruned_clusters").value
            == stats.pruned_clusters
        )
        assert registry.counter("redzone.zones").value == stats.red_zones


class TestDisabled:
    def test_pipeline_records_nothing(self, small_sim, small_batches):
        reg = obs.MetricsRegistry()
        with obs.activate(reg, collecting=False):
            engine = AnalysisEngine.from_simulator(small_sim)
            engine.add_day_records(0, small_batches[0])
            engine.query(engine.whole_city(), 0, 1, strategy="gui")
        assert reg.is_empty()
