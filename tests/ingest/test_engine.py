"""Tests for the live ingest engine: admission, day close, the lazy
week/month levels over live days, staleness, overload, and snapshots."""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.ingest.engine import IngestEngine, IngestOverload
from repro.serve import ServeApp


def sensors_of(engine):
    return sorted(s.sensor_id for s in engine.network)


class TestAdmission:
    def test_valid_rows_accepted(self, live_engine, live_ingest):
        sensor = sensors_of(live_engine)[0]
        result = live_ingest.add_events([(sensor, 0, 2.0), (sensor, 1, 1.0)])
        assert result.accepted == 2
        assert result.rejected_total() == 0
        assert result.open_day == 0
        assert live_ingest.pending_rows() == 2

    def test_unknown_sensor_rejected(self, live_ingest):
        result = live_ingest.add_events([(10**6, 0, 2.0)])
        assert result.accepted == 0
        assert result.rejected == {"unknown-sensor": 1}

    def test_beyond_calendar_rejected(self, live_engine, live_ingest):
        spec = live_engine.window_spec
        last = live_engine.calendar.num_days * spec.windows_per_day - 1
        sensor = sensors_of(live_engine)[0]
        assert live_ingest.add_events([(sensor, last + 1, 1.0)]).rejected == {
            "beyond-calendar": 1
        }

    def test_stale_window_rejected(self, live_engine, live_ingest):
        sensor = sensors_of(live_engine)[0]
        live_ingest.add_events([(sensor, 10, 1.0)])
        result = live_ingest.add_events([(sensor, 9, 1.0)])
        assert result.rejected == {"stale-window": 1}

    def test_closed_day_rejected(self, live_engine, live_ingest):
        sensor = sensors_of(live_engine)[0]
        live_ingest.add_events([(sensor, 5, 1.0)])
        live_ingest.flush()
        result = live_ingest.add_events([(sensor, 6, 1.0)])
        assert result.rejected == {"closed-day": 1}
        assert result.open_day == 1

    def test_note_rejections_folds_into_totals(self, live_ingest):
        from collections import Counter

        live_ingest.note_rejections(Counter({"parse": 2, "bad-sensor": 1}))
        stats = live_ingest.stats()
        assert stats["rejected"] == 3
        assert stats["rejections"] == {"bad-sensor": 1, "parse": 2}


class TestDayLifecycle:
    def test_watermark_crossing_closes_day(self, live_engine, live_ingest):
        spec = live_engine.window_spec
        sensor = sensors_of(live_engine)[0]
        live_ingest.add_events([(sensor, 3, 2.0)])
        result = live_ingest.add_events(
            [(sensor, spec.windows_per_day + 1, 1.0)]
        )
        assert result.closed_days == [0]
        assert result.open_day == 1
        assert live_engine.built_days == {0}
        assert len(live_engine.forest.day_clusters(0)) == 1

    def test_gap_days_installed_empty(self, live_engine, live_ingest):
        spec = live_engine.window_spec
        sensor = sensors_of(live_engine)[0]
        live_ingest.add_events([(sensor, 0, 2.0)])
        result = live_ingest.add_events(
            [(sensor, 3 * spec.windows_per_day, 1.0)]
        )
        assert result.closed_days == [0, 1, 2]
        assert live_engine.built_days == {0, 1, 2}
        assert live_engine.forest.day_clusters(1) == []
        assert live_engine.forest.day_clusters(2) == []

    def test_flush_closes_even_an_empty_day(self, live_engine, live_ingest):
        assert live_ingest.flush() == [0]
        assert live_engine.built_days == {0}
        assert live_ingest.open_day == 1
        assert live_ingest.stats()["days_closed"] == 1

    def test_resume_opens_after_last_built_day(self, small_sim):
        engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
        ingest = IngestEngine(engine)
        ingest.flush()
        ingest.flush()
        resumed = IngestEngine(engine, start_day=0)
        assert resumed.open_day == 2

    def test_staleness_tracks_pending_and_clears_on_close(
        self, live_engine, live_ingest
    ):
        sensor = sensors_of(live_engine)[0]
        assert live_ingest.staleness_seconds() == 0.0
        live_ingest.add_events([(sensor, 0, 1.0)])
        assert live_ingest.staleness_seconds() >= 0.0
        assert live_ingest.pending_rows() == 1
        live_ingest.flush()
        assert live_ingest.staleness_seconds() == 0.0
        assert live_ingest.pending_rows() == 0


class TestRollups:
    def test_day_close_materializes_week_and_month(
        self, live_engine, live_ingest
    ):
        spec = live_engine.window_spec
        sensor = sensors_of(live_engine)[0]
        # the same sensor at the same time of day on two consecutive days:
        # two day-level micros that merge when the week re-materializes
        live_ingest.add_events([(sensor, 0, 5.0)])
        live_ingest.add_events([(sensor, spec.windows_per_day, 5.0)])
        live_ingest.flush()
        cal = live_engine.calendar
        forest = live_engine.forest
        week = forest.week_clusters(cal.week_of_day(0))
        month = forest.month_clusters(cal.month_of_day(0))
        assert len(week) == 1
        assert len(month) == 1
        assert week[0].severity() == pytest.approx(10.0)

    def test_week_boundary_starts_a_new_tree(self, live_engine):
        spec = live_engine.window_spec
        cal = live_engine.calendar
        ingest = IngestEngine(live_engine)
        sensor = sensors_of(live_engine)[0]
        # one event on the last day of week 0 and one on the first day of
        # week 1; each lands in its own weekly tree
        last_of_week0 = cal.week_day_range(0)[-1]
        for day in (last_of_week0, last_of_week0 + 1):
            ingest.add_events([(sensor, day * spec.windows_per_day, 3.0)])
            ingest.flush()
        forest = live_engine.forest
        assert len(forest.week_clusters(0)) == 1
        assert len(forest.week_clusters(1)) == 1

    def test_day_close_leaves_week_and_month_caches_empty(self, live_engine):
        ingest = IngestEngine(live_engine)
        sensor = sensors_of(live_engine)[0]
        ingest.add_events([(sensor, 0, 5.0)])
        ingest.flush()
        cal = live_engine.calendar
        assert live_engine.forest.stats().num_week_macro == 0
        assert live_engine.forest.stats().num_month_macro == 0
        assert cal.week_of_day(0) == 0


class TestCalendarEnd:
    def test_flush_after_last_day_is_a_noop(self, small_sim):
        engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
        last = engine.calendar.num_days - 1
        ingest = IngestEngine(engine, start_day=last)
        assert ingest.flush() == [last]
        assert ingest.open_day == last + 1
        days = engine.forest.days
        assert ingest.flush() == []
        assert ingest.flush() == []
        assert engine.forest.days == days
        assert engine.built_days == {last}
        assert ingest.open_day == last + 1

    def test_flush_query_param_after_last_day_answers_200(self, small_sim):
        engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
        last = engine.calendar.num_days - 1
        app = ServeApp(engine, ingest_engine=IngestEngine(engine, start_day=last))
        status, _, payload, _ = app.dispatch("POST", "/ingest", {"flush": "1"}, b"")
        assert status == 200
        assert json.loads(payload)["closed_days"] == [last]
        days = engine.forest.days
        for _ in range(2):
            status, _, payload, _ = app.dispatch(
                "POST", "/ingest", {"flush": "1"}, b""
            )
            assert status == 200
            assert json.loads(payload)["closed_days"] == []
        assert engine.forest.days == days


class TestOverload:
    def test_oversized_batch_rejected_before_application(self, live_engine):
        ingest = IngestEngine(live_engine, max_batch_rows=2)
        sensor = sensors_of(live_engine)[0]
        with pytest.raises(IngestOverload):
            ingest.add_events([(sensor, w, 1.0) for w in range(3)])
        assert ingest.accepted_total == 0
        assert ingest.pending_rows() == 0

    def test_queue_full_sheds_waiters(self, live_engine):
        ingest = IngestEngine(live_engine, max_waiters=0)
        sensor = sensors_of(live_engine)[0]
        release = threading.Event()
        entered = threading.Event()

        original = ingest._apply

        def slow_apply(rows, flush):
            entered.set()
            release.wait(timeout=10)
            return original(rows, flush)

        ingest._apply = slow_apply
        worker = threading.Thread(
            target=lambda: ingest.add_events([(sensor, 0, 1.0)])
        )
        worker.start()
        try:
            assert entered.wait(timeout=10)
            with pytest.raises(IngestOverload):
                ingest.add_events([(sensor, 1, 1.0)])
        finally:
            release.set()
            worker.join(timeout=10)
        assert ingest.accepted_total == 1


class TestSnapshots:
    def test_snapshot_publishes_current_symlink(
        self, live_engine, live_ingest, tmp_path
    ):
        sensor = sensors_of(live_engine)[0]
        live_ingest.add_events([(sensor, 0, 2.0)])
        live_ingest.flush()
        target = live_ingest.snapshot(tmp_path)
        assert target == tmp_path / "model-000001"
        for name in ("forest.bin", "cube.bin", "engine.json"):
            assert (target / name).is_file()
        assert (tmp_path / "current").resolve() == target.resolve()

    def test_versions_derive_from_directory(self, live_engine, tmp_path):
        # a tailer resumed after a crash must not collide with versions
        # its predecessor published
        ingest = IngestEngine(live_engine)
        ingest.flush()
        ingest.snapshot(tmp_path)
        successor = IngestEngine(live_engine)
        assert successor.snapshot(tmp_path).name == "model-000002"

    def test_old_versions_pruned(self, live_engine, tmp_path):
        ingest = IngestEngine(live_engine, snapshot_keep=2)
        ingest.flush()
        for _ in range(4):
            ingest.snapshot(tmp_path)
        versions = sorted(p.name for p in tmp_path.glob("model-*"))
        assert versions == ["model-000003", "model-000004"]
        assert (tmp_path / "current").resolve().name == "model-000004"

    def test_snapshot_loads_as_a_model(self, small_sim, live_engine, tmp_path):
        ingest = IngestEngine(live_engine)
        sensor = sensors_of(live_engine)[0]
        ingest.add_events([(sensor, 0, 2.0)])
        ingest.flush()
        ingest.snapshot(tmp_path)
        loaded = AnalysisEngine.load(
            tmp_path / "current",
            small_sim.network,
            small_sim.districts(),
            config=EngineConfig(),
        )
        assert loaded.built_days == {0}
        assert len(loaded.forest.day_clusters(0)) == 1
