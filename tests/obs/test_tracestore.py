"""Tests for the tail-sampled trace store (repro.obs.tracestore)."""

from __future__ import annotations

import json

import pytest

from repro.obs import segmentlog
from repro.obs.tracestore import (
    DEFAULT_RING_SIZE,
    TRACE_SEGMENT_PREFIX,
    TailSampler,
    TraceRecord,
    TraceStore,
    critical_path,
    format_profile,
    format_trace,
    load_trace_segments,
    merge_profile,
    self_seconds,
    trace_to_chrome,
)


def make_record(request_id="req-1", status=200, seconds=0.1, spans=None, **kw):
    return TraceRecord(
        request_id=request_id,
        endpoint=kw.pop("endpoint", "query"),
        status=status,
        seconds=seconds,
        start=kw.pop("start", 1000.0),
        reasons=kw.pop("reasons", ("head",)),
        spans=spans if spans is not None else [],
    )


def make_spans():
    """A three-level tree: root 100ms -> child 60ms -> grandchild 25ms."""
    return [
        {"id": 1, "parent": -1, "name": "serve.request", "depth": 0,
         "start": 0.0, "seconds": 0.100, "attrs": {}},
        {"id": 2, "parent": 1, "name": "query.run", "depth": 1,
         "start": 0.01, "seconds": 0.060, "attrs": {}},
        {"id": 3, "parent": 2, "name": "query.select", "depth": 2,
         "start": 0.02, "seconds": 0.025, "attrs": {}},
        {"id": 4, "parent": 1, "name": "render", "depth": 1,
         "start": 0.08, "seconds": 0.015, "attrs": {}},
    ]


class TestTailSampler:
    def test_error_always_kept(self):
        sampler = TailSampler(latency_threshold=10.0, head_rate=0)
        assert sampler.decide("req-a", 500, 0.001) == ("error",)
        assert sampler.decide("req-a", 404, 0.001) == ("error",)
        assert sampler.decide("req-a", 200, 0.001) == ()

    def test_slow_threshold(self):
        sampler = TailSampler(latency_threshold=0.25, head_rate=0)
        assert sampler.decide("req-a", 200, 0.3) == ("slow",)
        assert sampler.decide("req-a", 200, 0.2) == ()
        # threshold 0.0 keeps everything; negative disables the rule
        assert TailSampler(latency_threshold=0.0, head_rate=0).decide(
            "req-a", 200, 0.0
        ) == ("slow",)
        assert TailSampler(latency_threshold=-1.0, head_rate=0).decide(
            "req-a", 200, 99.0
        ) == ()

    def test_head_sample_deterministic_under_fixed_seed(self):
        sampler = TailSampler(latency_threshold=-1.0, head_rate=10, seed=42)
        ids = [f"req-{i:04d}" for i in range(500)]
        first = [rid for rid in ids if sampler.decide(rid, 200, 0.0)]
        second = [rid for rid in ids if sampler.decide(rid, 200, 0.0)]
        assert first == second  # same (seed, id) -> same decision
        # roughly 1-in-10 of a uniform id population
        assert 20 <= len(first) <= 100
        # a different seed keeps a different subset
        other = TailSampler(latency_threshold=-1.0, head_rate=10, seed=43)
        third = [rid for rid in ids if other.decide(rid, 200, 0.0)]
        assert third != first

    def test_head_rate_zero_disables(self):
        sampler = TailSampler(latency_threshold=-1.0, head_rate=0)
        assert all(
            sampler.decide(f"req-{i}", 200, 0.0) == () for i in range(100)
        )

    def test_reasons_compose(self):
        sampler = TailSampler(latency_threshold=0.0, head_rate=1)
        assert sampler.decide("req-a", 500, 1.0) == ("error", "slow", "head")


class TestTraceRecord:
    def test_round_trip(self):
        record = make_record(spans=make_spans(), reasons=("error", "slow"))
        clone = TraceRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record

    def test_summary_counts_spans(self):
        record = make_record(spans=make_spans())
        assert record.summary()["spans"] == 4
        assert "spans" in record.to_dict()
        assert isinstance(record.to_dict()["spans"], list)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"request_id": "x"},
            {"request_id": "x", "status": "not-a-number", "seconds": 0.1},
            {"request_id": "x", "status": 200, "seconds": 0.1, "spans": "no"},
        ],
    )
    def test_malformed_raises(self, doc):
        with pytest.raises(ValueError):
            TraceRecord.from_dict(doc)


class TestTraceStoreRing:
    def test_add_get_len(self):
        store = TraceStore()
        assert len(store) == 0 and store.added == 0
        store.add(make_record("req-a"))
        assert store.get("req-a").request_id == "req-a"
        assert store.get("missing") is None
        assert len(store) == 1 and store.added == 1

    def test_ring_eviction_drops_index(self):
        store = TraceStore(ring_size=3)
        for i in range(5):
            store.add(make_record(f"req-{i}"))
        assert len(store) == 3
        assert store.added == 5
        assert store.get("req-0") is None and store.get("req-1") is None
        assert store.get("req-4") is not None

    def test_duplicate_request_ids_newest_wins(self):
        store = TraceStore(ring_size=4)
        store.add(make_record("req-dup", seconds=0.1))
        store.add(make_record("req-dup", seconds=0.9))
        assert store.get("req-dup").seconds == 0.9
        # evicting the stale duplicate must not delete the newer entry
        store.add(make_record("req-x"))
        store.add(make_record("req-y"))
        store.add(make_record("req-z"))  # evicts the 0.1s req-dup
        assert store.get("req-dup").seconds == 0.9

    def test_recent_newest_first(self):
        store = TraceStore()
        for i in range(4):
            store.add(make_record(f"req-{i}"))
        assert [r.request_id for r in store.recent()] == [
            "req-3", "req-2", "req-1", "req-0",
        ]
        assert [r.request_id for r in store.recent(2)] == ["req-3", "req-2"]

    def test_slowest_orders_by_duration(self):
        store = TraceStore()
        for i, seconds in enumerate([0.2, 0.5, 0.1, 0.5]):
            store.add(make_record(f"req-{i}", seconds=seconds))
        ordered = [r.request_id for r in store.slowest(3)]
        # ties broken newest-first: req-3 beats req-1 at 0.5s
        assert ordered == ["req-3", "req-1", "req-0"]

    def test_errored_filters_and_orders(self):
        store = TraceStore()
        store.add(make_record("req-ok", status=200))
        store.add(make_record("req-err-1", status=500))
        store.add(make_record("req-err-2", status=404))
        assert [r.request_id for r in store.errored()] == [
            "req-err-2", "req-err-1",
        ]
        assert [r.request_id for r in store.errored(1)] == ["req-err-2"]

    def test_default_ring_size(self):
        assert TraceStore()._ring.maxlen == DEFAULT_RING_SIZE


class TestTraceStorePersistence:
    def test_round_trip_through_segments(self, tmp_path):
        store = TraceStore(segment_dir=tmp_path)
        for i in range(3):
            store.add(make_record(f"req-{i}", spans=make_spans()))
        store.sync()
        loaded = load_trace_segments(tmp_path)
        assert len(loaded) == 3
        assert loaded.get("req-1") == store.get("req-1")

    def test_rotation_and_retention(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 300)
        monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 3)
        store = TraceStore(segment_dir=tmp_path)
        for i in range(30):
            store.add(make_record(f"req-{i:03d}"))
        segments = sorted(tmp_path.glob(f"{TRACE_SEGMENT_PREFIX}*.ndjson"))
        assert 1 < len(segments) <= 3
        # oldest rows were pruned with their segments
        loaded = load_trace_segments(tmp_path)
        assert loaded.get("req-029") is not None
        assert loaded.get("req-000") is None

    def test_resume_appends_to_existing_segments(self, tmp_path):
        first = TraceStore(segment_dir=tmp_path)
        first.add(make_record("req-a"))
        second = TraceStore(segment_dir=tmp_path)
        second.add(make_record("req-b"))
        loaded = load_trace_segments(tmp_path)
        assert loaded.get("req-a") is not None
        assert loaded.get("req-b") is not None
        assert len(list(tmp_path.glob("*.ndjson"))) == 1

    def test_torn_trailing_line_skipped(self, tmp_path):
        store = TraceStore(segment_dir=tmp_path)
        store.add(make_record("req-whole"))
        segment = next(tmp_path.glob("*.ndjson"))
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"request_id": "req-torn", "status": 200, "seco')
        loaded = load_trace_segments(tmp_path)
        assert loaded.get("req-whole") is not None
        assert loaded.get("req-torn") is None
        assert len(loaded) == 1

    def test_malformed_rows_skipped(self, tmp_path):
        segment = tmp_path / f"{TRACE_SEGMENT_PREFIX}000000.ndjson"
        rows = [
            json.dumps(make_record("req-good").to_dict()),
            json.dumps({"status": 200}),  # missing request_id
            json.dumps([1, 2, 3]),  # not an object
            "",
        ]
        segment.write_text("\n".join(rows) + "\n")
        loaded = load_trace_segments(tmp_path)
        assert [r.request_id for r in loaded.recent()] == ["req-good"]

    def test_duplicate_ids_across_segments_newest_wins(self, tmp_path):
        old = tmp_path / f"{TRACE_SEGMENT_PREFIX}000000.ndjson"
        new = tmp_path / f"{TRACE_SEGMENT_PREFIX}000001.ndjson"
        old.write_text(
            json.dumps(make_record("req-dup", seconds=0.1).to_dict()) + "\n"
        )
        new.write_text(
            json.dumps(make_record("req-dup", seconds=0.7).to_dict()) + "\n"
        )
        assert load_trace_segments(tmp_path).get("req-dup").seconds == 0.7

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_segments(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no trace-"):
            load_trace_segments(tmp_path)

    def test_sync_is_noop_without_segments(self, tmp_path):
        TraceStore().sync()  # memory-only
        TraceStore(segment_dir=tmp_path).sync()  # dir exists, no file yet


class TestSpanAnalysis:
    def test_self_seconds_subtracts_children(self):
        selfs = self_seconds(make_spans())
        assert selfs[1] == pytest.approx(0.100 - 0.060 - 0.015)
        assert selfs[2] == pytest.approx(0.060 - 0.025)
        assert selfs[3] == pytest.approx(0.025)

    def test_self_seconds_clamps_clock_skew(self):
        spans = [
            {"id": 1, "parent": -1, "name": "root", "depth": 0,
             "start": 0.0, "seconds": 0.010},
            # child claims more time than the parent (skewed clocks)
            {"id": 2, "parent": 1, "name": "child", "depth": 1,
             "start": 0.001, "seconds": 5.0},
        ]
        selfs = self_seconds(spans)
        assert selfs[1] == 0.0  # clamped, never negative
        assert selfs[2] == pytest.approx(5.0)

    def test_critical_path_follows_heaviest_child(self):
        names = [s["name"] for s in critical_path(make_spans())]
        assert names == ["serve.request", "query.run", "query.select"]

    def test_critical_path_out_of_order_input(self):
        spans = list(reversed(make_spans()))
        names = [s["name"] for s in critical_path(spans)]
        assert names == ["serve.request", "query.run", "query.select"]

    def test_critical_path_cycle_guard(self):
        spans = [
            {"id": 1, "parent": 2, "name": "a", "seconds": 1.0},
            {"id": 2, "parent": 1, "name": "b", "seconds": 0.5},
        ]
        path = critical_path(spans)
        assert [s["name"] for s in path] == ["a", "b"]

    def test_critical_path_empty(self):
        assert critical_path([]) == []

    def test_format_trace_marks_path(self):
        text = format_trace(make_record(spans=make_spans(), seconds=0.1))
        assert "serve.request" in text
        lines = text.splitlines()
        assert any("query.select" in l and l.rstrip().endswith("*") for l in lines)
        assert any("render" in l and not l.rstrip().endswith("*") for l in lines)

    def test_format_trace_without_spans(self):
        assert "(no spans captured)" in format_trace(make_record())

    def test_merge_profile_accumulates(self):
        records = [make_record(f"req-{i}", spans=make_spans()) for i in range(2)]
        profile = merge_profile(records)
        assert profile["query.select"]["count"] == 2
        assert profile["query.select"]["total_seconds"] == pytest.approx(0.05)
        text = format_profile(profile, limit=2)
        assert len(text.splitlines()) == 3  # header + 2 rows
        # hottest self time first
        assert "query.run" in text.splitlines()[1]

    def test_trace_to_chrome_shape(self):
        doc = trace_to_chrome(make_record(spans=make_spans()))
        assert doc["displayTimeUnit"] == "ms"
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "serve.request" in names
