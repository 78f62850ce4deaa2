"""Tests for spool tailing: resume, torn checkpoints, and no double-counting."""

from __future__ import annotations

import json

import pytest

from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.ingest.engine import IngestEngine
from repro.ingest.spool import (
    SPOOL_SUFFIX,
    SpoolTailer,
    load_checkpoint,
    write_checkpoint,
    write_spool_file,
)

from .conftest import day_rows


@pytest.fixture()
def spooled(small_sim, live_engine, tmp_path):
    """Two spool files (one per day) plus the dirs a tailer needs."""
    spool = tmp_path / "spool"
    batches = {
        day: day_rows(_atypical_day(small_sim, day)) for day in (0, 1)
    }
    write_spool_file(spool, "000000.ndjson", batches[0])
    write_spool_file(spool, "000001.ndjson", batches[1])
    return {
        "spool": spool,
        "snaps": tmp_path / "snaps",
        "checkpoint": tmp_path / "snaps" / "checkpoint.json",
        "rows": batches,
    }


def _atypical_day(sim, day):
    from repro.core.records import RecordBatch

    chunk = sim.simulate_day(day)
    mask = chunk.atypical_mask()
    return RecordBatch(
        chunk.sensor_ids[mask],
        chunk.windows[mask],
        chunk.congested[mask].astype(float),
    )


def make_tailer(spool, ingest, snaps, checkpoint):
    return SpoolTailer(
        spool,
        ingest,
        checkpoint_path=checkpoint,
        snapshot_dir=snaps,
        snapshot_every_days=1,
        poll_seconds=0.01,
    )


class TestProducerHelper:
    def test_rename_into_place_leaves_no_temp(self, tmp_path):
        target = write_spool_file(tmp_path, "000000.ndjson", [(1, 2, 3.0)])
        assert target.is_file()
        assert [p.name for p in tmp_path.iterdir()] == ["000000.ndjson"]

    def test_suffix_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            write_spool_file(tmp_path, "000000.json", [(1, 2, 3.0)])
        assert SPOOL_SUFFIX == ".ndjson"


class TestDrain:
    def test_once_drains_and_checkpoints(self, live_engine, live_ingest, spooled):
        tailer = make_tailer(
            spooled["spool"], live_ingest, spooled["snaps"], spooled["checkpoint"]
        )
        files, days_closed = tailer.run(once=True, flush_at_exit=True)
        assert files == 2
        assert days_closed == 2
        assert live_engine.built_days == {0, 1}
        # after the exit flush both days precede the open day, so both
        # files are checkpointable
        done = load_checkpoint(spooled["checkpoint"])
        assert done == {"000000.ndjson", "000001.ndjson"}
        doc = json.loads(spooled["checkpoint"].read_text())
        assert doc["snapshot"].endswith("model-000002")
        assert (spooled["snaps"] / "current").exists()

    def test_file_straddling_open_day_stays_pending(
        self, live_ingest, spooled
    ):
        tailer = make_tailer(
            spooled["spool"], live_ingest, spooled["snaps"], spooled["checkpoint"]
        )
        # no exit flush: day 1 is still open, so 000001.ndjson must not be
        # checkpointed (its events would be lost with the process)
        tailer.run(once=True, flush_at_exit=False)
        assert load_checkpoint(spooled["checkpoint"]) == {"000000.ndjson"}


class TestResume:
    def test_checkpointed_files_are_skipped(self, live_ingest, spooled):
        tailer = make_tailer(
            spooled["spool"], live_ingest, spooled["snaps"], spooled["checkpoint"]
        )
        tailer.run(once=True, flush_at_exit=True)
        resumed = make_tailer(
            spooled["spool"], live_ingest, spooled["snaps"], spooled["checkpoint"]
        )
        assert resumed.scan_once() == 0

    def test_torn_checkpoint_degrades_to_full_replay(
        self, small_sim, live_ingest, spooled
    ):
        tailer = make_tailer(
            spooled["spool"], live_ingest, spooled["snaps"], spooled["checkpoint"]
        )
        tailer.run(once=True, flush_at_exit=True)
        accepted = live_ingest.accepted_total

        # simulate a crash that tore the checkpoint mid-write, then a
        # restart from the published snapshot
        spooled["checkpoint"].write_text('{"processed": ["000')
        engine = AnalysisEngine.load(
            spooled["snaps"] / "current",
            small_sim.network,
            small_sim.districts(),
            config=EngineConfig(),
        )
        ingest = IngestEngine(engine)
        assert ingest.open_day == 2
        resumed = make_tailer(
            spooled["spool"], ingest, spooled["snaps"], spooled["checkpoint"]
        )
        files, days_closed = resumed.run(once=True, flush_at_exit=False)
        # the whole spool replays, but every event belongs to a built day:
        # all rejected as closed-day, nothing double-counted
        assert files == 2
        assert days_closed == 0
        assert ingest.accepted_total == 0
        assert resumed.rejected_totals["closed-day"] == accepted
        assert engine.built_days == {0, 1}

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.json") == set()

    @pytest.mark.parametrize(
        "content", ["[]", '{"processed": "000000.ndjson"}', "{}"]
    )
    def test_structurally_invalid_checkpoint_is_empty(self, tmp_path, content):
        path = tmp_path / "checkpoint.json"
        path.write_text(content)
        assert load_checkpoint(path) == set()

    def test_write_checkpoint_atomic_and_sorted(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, {"b.ndjson", "a.ndjson"}, "snap/model-000001")
        doc = json.loads(path.read_text())
        assert doc["processed"] == ["a.ndjson", "b.ndjson"]
        assert doc["snapshot"] == "snap/model-000001"
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
