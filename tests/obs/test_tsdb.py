"""Tests for the local time-series store (repro.obs.tsdb)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import segmentlog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import (
    DEFAULT_CAPACITY,
    DEFAULT_RESOLUTIONS,
    Sampler,
    Series,
    TimeSeriesStore,
    flatten_snapshot,
    load_segments,
    sample_point,
)

T0 = 1_000_000.0  # fixed epoch base so bucket alignment is predictable


class TestSeries:
    def test_rollups_fold_every_resolution(self):
        s = Series("x", "gauge", resolutions=(1.0, 10.0), capacity=100)
        for i in range(25):
            s.record(T0 + i, float(i))
        assert len(s.buckets(1.0)) == 25
        coarse = s.buckets(10.0)
        assert len(coarse) == 3
        assert coarse[0].count == 10
        assert coarse[0].min == 0.0 and coarse[0].max == 9.0
        assert coarse[-1].last == 24.0

    def test_ring_capacity_evicts_oldest(self):
        s = Series("x", "gauge", resolutions=(1.0,), capacity=5)
        for i in range(8):
            s.record(T0 + i, float(i))
        buckets = s.buckets(1.0)
        assert len(buckets) == 5
        assert buckets[0].last == 3.0  # 0..2 evicted

    def test_counter_increase_within_window(self):
        s = Series("c", "counter", resolutions=(1.0,), capacity=100)
        for i in range(10):
            s.record(T0 + i, float(i * 5))  # grows 5/s
        # trailing 4s window holds buckets T0+5..T0+9; the baseline is
        # the bucket just before it (T0+4, value 20), so growth is 25
        assert s.increase(4.0, now=T0 + 9) == pytest.approx(25.0)

    def test_counter_increase_detects_reset(self):
        s = Series("c", "counter", resolutions=(1.0,), capacity=100)
        s.record(T0 + 0, 100.0)
        s.record(T0 + 1, 110.0)
        s.record(T0 + 2, 3.0)  # restart: counter came back near zero
        s.record(T0 + 3, 6.0)
        # young series baseline 0: 100 + 10 before the reset, then the
        # post-reset value 3 itself plus 3 more — never the bogus -104
        assert s.increase(10.0, now=T0 + 3) == pytest.approx(116.0)

    def test_young_series_counts_all_growth(self):
        # a series younger than the window accrued everything inside it —
        # the first bucket's intra-bucket growth must not be dropped
        s = Series("c", "counter", resolutions=(10.0,), capacity=100)
        for i in range(5):
            s.record(T0 + i, float(i * 10))
        assert s.increase(3600.0, now=T0 + 4) == pytest.approx(40.0)

    def test_gauge_increase_is_last_minus_first(self):
        s = Series("g", "gauge", resolutions=(1.0,), capacity=100)
        for i in range(5):
            s.record(T0 + i, 50.0 - i)
        assert s.increase(10.0, now=T0 + 4) == pytest.approx(-4.0)

    def test_window_wider_than_fine_ring_uses_rollup(self):
        # 1s ring covers capacity seconds; a much wider window must read
        # the coarser rollup instead of silently truncating history
        s = Series("c", "counter", resolutions=(1.0, 60.0), capacity=10)
        for i in range(300):
            s.record(T0 + i, float(i))
        assert s._pick_ring(5.0).resolution == 1.0
        assert s._pick_ring(200.0).resolution == 60.0
        # growth over the window is 200; bucket alignment may shave up
        # to one coarse bucket off either edge
        assert s.increase(200.0, now=T0 + 299) == pytest.approx(200.0, abs=61.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Series("x", "summary")


class TestFlattenSnapshot:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc(7)
        reg.gauge("serve.in_flight").set(2)
        hist = reg.histogram("serve.request_seconds", (0.5, 1.0))
        hist.observe(0.2)
        hist.observe(0.7)
        hist.observe(5.0)
        return reg

    def test_counters_gauges_histograms(self):
        flat = flatten_snapshot(self._registry().snapshot())
        assert flat["serve.requests"] == ("counter", 7.0)
        assert flat["serve.in_flight"] == ("gauge", 2.0)
        assert flat["serve.request_seconds:count"] == ("counter", 3.0)
        # :le: series are cumulative, Prometheus-style
        assert flat["serve.request_seconds:le:0.5"] == ("counter", 1.0)
        assert flat["serve.request_seconds:le:1"] == ("counter", 2.0)

    def test_sample_point_shape(self):
        point = sample_point(self._registry(), now=T0)
        assert point["t"] == T0
        assert point["series"]["serve.requests"] == 7.0
        assert point["kinds"]["serve.requests"] == "counter"
        # the row is NDJSON-ready
        json.dumps(point)


class TestTimeSeriesStore:
    def test_ingest_round_trip(self):
        store = TimeSeriesStore()
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        store.sample_registry(reg, now=T0)
        reg.counter("c").inc(2)
        store.sample_registry(reg, now=T0 + 1)
        assert store.latest("c") == 5.0
        assert store.increase("c", 60.0, now=T0 + 1) == pytest.approx(5.0)
        assert store.samples == 2

    def test_unknown_series_is_zero(self):
        store = TimeSeriesStore()
        assert store.increase("nope", 60.0, now=T0) == 0.0
        assert store.latest("nope") is None
        assert store.query("nope") == []

    def test_segments_rotate_and_prune(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 200)
        monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 3)
        store = TimeSeriesStore(segment_dir=tmp_path)
        for i in range(50):
            store.ingest({"t": T0 + i, "series": {"c": float(i)}, "kinds": {"c": "counter"}})
        paths = store.log.paths()
        assert 1 <= len(paths) <= 3
        assert store.rotations > 0
        # every surviving row parses
        for path in paths:
            for line in path.read_text().splitlines():
                json.loads(line)

    def test_store_resumes_segment_numbering(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 100)
        first = TimeSeriesStore(segment_dir=tmp_path)
        for i in range(10):
            first.ingest({"t": T0 + i, "series": {"c": float(i)}, "kinds": {}})
        highest = first.log.paths()[-1].name
        second = TimeSeriesStore(segment_dir=tmp_path)
        second.ingest({"t": T0 + 60, "series": {"c": 10.0}, "kinds": {}})
        assert second.log.paths()[-1].name >= highest


class TestLoadSegments:
    def test_round_trip(self, tmp_path):
        store = TimeSeriesStore(segment_dir=tmp_path)
        for i in range(20):
            store.ingest(
                {
                    "t": T0 + i,
                    "series": {"serve.requests": float(i * 3)},
                    "kinds": {"serve.requests": "counter"},
                }
            )
        loaded = load_segments(tmp_path)
        assert loaded.latest("serve.requests") == 57.0
        assert loaded.increase(
            "serve.requests", 60.0, now=T0 + 19
        ) == pytest.approx(57.0)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_segments(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_segments(tmp_path)

    def test_torn_final_line_skipped(self, tmp_path):
        store = TimeSeriesStore(segment_dir=tmp_path)
        store.ingest({"t": T0, "series": {"c": 1.0}, "kinds": {"c": "counter"}})
        path = store.log.paths()[0]
        with path.open("a") as handle:
            handle.write('{"t": 999, "series": {"c"')  # crash mid-write
        loaded = load_segments(tmp_path)
        assert loaded.latest("c") == 1.0

    def test_rows_of_the_wrong_shape_skipped(self, tmp_path):
        good = [
            {"t": T0, "series": {"c": 1.0}, "kinds": {"c": "counter"}},
            {"t": T0 + 1, "series": {"c": 2.0}, "kinds": {"c": "counter"}},
        ]
        bad = [
            {"series": 5, "t": 101.0},
            {"t": "soon", "series": {"c": 9.0}},
            {"t": T0 + 2, "series": {"c": "nine"}},
            {"t": T0 + 3, "series": {"c": 9.0}, "kinds": ["counter"]},
            {"t": T0 + 4, "series": {"c": 9.0}, "kinds": {"c": "histogram"}},
            {"t": T0 + 5},
        ]
        (tmp_path / "tsdb-000000.ndjson").write_text(
            "".join(json.dumps(row) + "\n" for row in [good[0], *bad, good[1]])
        )
        loaded = load_segments(tmp_path)
        assert loaded.samples == 2
        assert loaded.latest("c") == 2.0


class TestSampler:
    def test_sample_once_records_self_metrics(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc(4)
        store = TimeSeriesStore()
        sampler = Sampler(store, interval=60.0, registry=reg)
        with obs.activate(reg):
            sampler.sample_once(now=T0)
        assert store.latest("serve.requests") == 4.0
        assert reg.counter("tsdb.samples").value == 1
        assert reg.gauge("tsdb.series").value >= 1

    def test_start_stop_lifecycle(self):
        reg = MetricsRegistry()
        store = TimeSeriesStore()
        sampler = Sampler(store, interval=30.0, registry=reg)
        sampler.start()
        sampler.start()  # idempotent
        assert sampler.stop(timeout=5.0)
        # stop's final flush leaves at least one sample behind
        assert store.samples >= 1

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Sampler(TimeSeriesStore(), interval=0.0)


def test_default_constants_cover_slo_windows():
    # the coarsest default ring must span the 6h slow burn window
    assert max(DEFAULT_RESOLUTIONS) * DEFAULT_CAPACITY >= 6 * 3600
