"""Tests for the shared NDJSON segment log (repro.obs.segmentlog)."""

from __future__ import annotations

import hashlib
import json
import os
import threading

import pytest

from repro.obs import segmentlog
from repro.obs.contprof import (
    PROF_SEGMENT_PREFIX,
    ContinuousProfiler,
    ProfileWindow,
    load_prof_segments,
)
from repro.obs.segmentlog import SegmentLog, read_rows
from repro.obs.tracestore import (
    TRACE_SEGMENT_PREFIX,
    TraceRecord,
    TraceStore,
    load_trace_segments,
)
from repro.obs.tsdb import SEGMENT_PREFIX, TimeSeriesStore, load_segments

T0 = 1_000_000.0


class TestSegmentLog:
    def test_rotates_before_a_row_would_cross_the_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 100)
        log = SegmentLog(tmp_path, "x-")
        for i in range(20):
            log.append({"i": i, "pad": "abcdefghij"})
        assert log.rotations > 0
        assert all(path.stat().st_size <= 100 for path in log.paths())
        log.append({"big": "y" * 300})
        newest = log.paths()[-1]
        assert newest.read_text() == json.dumps({"big": "y" * 300}) + "\n"
        assert newest.stat().st_size > 100  # oversized row lands whole, alone

    def test_keeps_only_the_newest_segments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 1)
        monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 3)
        log = SegmentLog(tmp_path, "x-")
        for i in range(10):
            log.append({"i": i})
        assert [p.name for p in log.paths()] == [
            "x-000007.ndjson", "x-000008.ndjson", "x-000009.ndjson",
        ]
        assert log.rotations == 9
        assert [row["i"] for row in read_rows(tmp_path, "x-", "test")] == [7, 8, 9]

    def test_reopened_log_resumes_newest_segment_at_its_size(
        self, tmp_path, monkeypatch
    ):
        row = {"pad": "z" * 30}  # 44 bytes on disk
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 100)
        first = SegmentLog(tmp_path, "x-")
        first.append(row)
        first.append(row)
        second = SegmentLog(tmp_path, "x-")
        second.append(row)  # 88 + 44 > 100: rotates only if 88 was resumed
        assert second.rotations == 1
        assert [p.name for p in second.paths()] == [
            "x-000000.ndjson", "x-000001.ndjson",
        ]
        third = SegmentLog(tmp_path, "x-")
        third.append({"i": 1})
        assert third.rotations == 0
        assert len(third.paths()[-1].read_text().splitlines()) == 2

    def test_torn_lines_and_non_object_rows_are_skipped(self, tmp_path):
        (tmp_path / "x-000000.ndjson").write_text(
            '{"a": 1}\n[1, 2]\n"text"\n5\n\n   \n{"b": 2}\n'
        )
        (tmp_path / "x-000001.ndjson").write_text('{"c": 3}\n{"d": 4, "e"')
        rows = list(read_rows(tmp_path, "x-", "test"))
        assert rows == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such test directory"):
            read_rows(tmp_path / "nope", "x-", "test")

    def test_directory_without_segments_raises(self, tmp_path):
        (tmp_path / "x-notes.ndjson").write_text('{"a": 1}\n')
        with pytest.raises(ValueError, match="contains no x-"):
            read_rows(tmp_path, "x-", "test")

    def test_sync_before_first_append_is_a_noop(self, tmp_path):
        log = SegmentLog(tmp_path / "fresh", "x-")
        log.sync()
        assert log.paths() == []
        log.append({"a": 1})
        log.sync()
        assert len(log.paths()) == 1

    def test_health(self, tmp_path):
        log = SegmentLog(tmp_path, "x-")
        assert log.health() == {"segments": 0, "last_flush_age_seconds": None}
        log.append({"a": 1})
        health = log.health()
        assert health["segments"] == 1
        assert 0.0 <= health["last_flush_age_seconds"] < 60.0

    def test_concurrent_appends_land_once_on_whole_lines(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 4096)
        monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 10_000)
        log = SegmentLog(tmp_path, "x-")
        threads, per_thread = 8, 200
        start = threading.Barrier(threads)

        def writer(t):
            start.wait()
            for n in range(per_thread):
                log.append({"t": t, "n": n})

        workers = [
            threading.Thread(target=writer, args=(t,)) for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        rows = [  # json.loads fails on any line two writers interleaved
            json.loads(line)
            for path in log.paths()
            for line in path.read_text().splitlines()
        ]
        assert len(rows) == threads * per_thread
        assert {(r["t"], r["n"]) for r in rows} == {
            (t, n) for t in range(threads) for n in range(per_thread)
        }
        assert log.rotations == len(log.paths()) - 1 > 0


# ----------------------------------------------------------------------
# The three stores on top of the log
# ----------------------------------------------------------------------
class _Code:
    def __init__(self, name):
        self.co_name = name


class _Frame:
    def __init__(self, module, name, back=None):
        self.f_globals = {"__name__": module}
        self.f_code = _Code(name)
        self.f_back = back


FRAMES = {
    1: _Frame("app.main", "serve", _Frame("threading", "run")),
    2: _Frame("threading", "wait", _Frame("app.main", "poll")),
}


def _tsdb_row(i):
    return {
        "t": T0 + i,
        "series": {"serve.requests": float(i * 3), "serve.latency:le:0.5": float(i)},
        "kinds": {"serve.requests": "counter", "serve.latency:le:0.5": "counter"},
    }


def _trace(i):
    return TraceRecord(
        request_id=f"req-{i:03d}",
        endpoint="query",
        status=500 if i % 5 == 0 else 200,
        seconds=0.01 * i,
        start=T0 + i,
        reasons=("error",) if i % 5 == 0 else ("head",),
        spans=[
            {
                "id": 1,
                "parent": None,
                "name": "serve.request",
                "depth": 0,
                "start": T0 + i,
                "seconds": 0.01 * i,
                "attrs": {"n": i},
            }
        ],
    )


STORES = {
    "tsdb": (
        SEGMENT_PREFIX,
        lambda d: TimeSeriesStore(segment_dir=d),
        lambda store, i: store.ingest(_tsdb_row(i)),
        lambda d: load_segments(d).samples,
        _tsdb_row(-1) | {"series": {"stray": 1.0}},
        lambda d: load_segments(d).series("stray") is None,
    ),
    "traces": (
        TRACE_SEGMENT_PREFIX,
        lambda d: TraceStore(segment_dir=d),
        lambda store, i: store.add(_trace(i)),
        lambda d: len(load_trace_segments(d)),
        _trace(999).to_dict() | {"request_id": "stray"},
        lambda d: load_trace_segments(d).get("stray") is None,
    ),
    "profiler": (
        PROF_SEGMENT_PREFIX,
        lambda d: ContinuousProfiler(hz=10, window_seconds=1, segment_dir=d),
        # every tick after the first folds the previous window into a row
        lambda store, i: store.sample_once(now=i * 10.0, frames=FRAMES),
        lambda d: len(load_prof_segments(d)),
        ProfileWindow("stray", 0.0, 1.0).to_dict(),
        lambda d: all(w.id != "stray" for w in load_prof_segments(d)),
    ),
}

#: Surviving segment names and sha256 digests written by the three
#: stores' own appenders before they shared :mod:`repro.obs.segmentlog`,
#: for the fixed row sequences below — plus the replayed row counts.
PRE_REFACTOR_DIGESTS = {
    "tsdb": (
        {
            "tsdb-000027.ndjson": "41b126fa36201167ec6911a9ce99dcf148ba84dc1bc36ef2531aff3f44e226a0",
            "tsdb-000028.ndjson": "a132d8a634acef3991277bb7cb73aa381b30a46cc20419755380e8c2770945f9",
            "tsdb-000029.ndjson": "0fb33440eb7efb03d75741dd63626ae52e9c70457c726313ba18c145236d023e",
        },
        6,
    ),
    "traces": (
        {
            "trace-000017.ndjson": "a849ebbfc7c0e59c0d4e8572de9efbef6f3a93994caabe40e9a86be5df884254",
            "trace-000018.ndjson": "35620ccbd69b060e346f8a8507100045a99ee5c7ad2af5fadd0df0a7c1d61d85",
            "trace-000019.ndjson": "3a4ae66d88903074ff1658f4d1775f8b007f049c2da79ca652cffb3a3aac5ea6",
        },
        6,
    ),
    "profiler": (
        {
            "prof-000026.ndjson": "09ee47474fd542834eab4200de8d3116d552f2f016bdf2984bc7557298cb905f",
            "prof-000027.ndjson": "6dc353fa4b8536118a7b5607088eb1cc37fef670afefb972a797af311e575ae6",
            "prof-000028.ndjson": "f8206cfd2f14a434631d457d9f276f51f7dc1e95bcaec56a138d768552ada0ee",
        },
        3,
    ),
}

#: (rows pushed, MAX_SEGMENT_BYTES) for the digest test, per store.
DIGEST_RUNS = {"tsdb": (60, 400), "traces": (40, 600), "profiler": (30, 300)}


@pytest.mark.parametrize("kind", sorted(STORES))
def test_on_disk_bytes_unchanged(kind, tmp_path, monkeypatch):
    prefix, make, push, replayed, _, _ = STORES[kind]
    rows, max_bytes = DIGEST_RUNS[kind]
    monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", max_bytes)
    monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 3)
    with monkeypatch.context() as m:  # profile window ids carry entropy
        m.setattr(os, "urandom", lambda n: bytes(n))
        store = make(tmp_path)
    for i in range(rows):
        push(store, i)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert (digests, replayed(tmp_path)) == PRE_REFACTOR_DIGESTS[kind]
    assert all(path.name.startswith(prefix) for path in store.log.paths())


@pytest.mark.parametrize("kind", sorted(STORES))
def test_stray_prefixed_file_is_not_a_segment(kind, tmp_path, monkeypatch):
    prefix, make, push, _, stray_row, stray_not_replayed = STORES[kind]
    stray = tmp_path / f"{prefix}archive.ndjson"
    stray.write_text(json.dumps(stray_row, sort_keys=True) + "\n")
    stray_bytes = stray.read_bytes()
    newest = tmp_path / f"{prefix}000003.ndjson"
    newest.write_text("{}\n")

    store = make(tmp_path)  # used to raise or resume at index 0
    push(store, 0)
    push(store, 1)
    assert store.log.paths() == [newest]
    assert len(newest.read_text().splitlines()) > 1  # the next row went here

    monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 1)
    monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 2)
    for i in range(2, 8):
        push(store, i)
    assert store.log.rotations > 0
    assert stray.read_bytes() == stray_bytes
    assert store.log.health()["segments"] == len(store.log.paths()) == 2
    assert store.log.paths()[0].name > newest.name
    assert stray_not_replayed(tmp_path)
