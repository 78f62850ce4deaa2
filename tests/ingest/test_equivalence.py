"""Live-vs-batch equivalence: the PR's central invariant.

A day streamed through :class:`IngestEngine` — in any batch chunking —
must leave the forest, cube and snapshot files exactly as a batch build
over the same records would. These tests are the standing gate on that
equality; the ``ingest_backfill`` workload of ``bench/`` re-checks
``cube.bin`` end to end against a live server.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.core.records import RecordBatch
from repro.ingest.engine import IngestEngine
from repro.storage.forest_io import save_cube

from .conftest import day_rows

STREAM_DAYS = 2


def _file_digests(model_dir):
    return {
        name: hashlib.sha256((model_dir / name).read_bytes()).hexdigest()
        for name in ("forest.bin", "cube.bin", "engine.json")
    }


def _cube_digest(engine):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cube.bin"
        save_cube(engine.cube, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _forest_signature(engine):
    forest = engine.forest
    return [
        (
            day,
            [
                (
                    c.cluster_id,
                    tuple(sorted(c.spatial.items())),
                    tuple(sorted(c.temporal.items())),
                )
                for c in forest.day_clusters(day)
            ],
        )
        for day in sorted(engine.built_days)
    ]


class TestByteParity:
    def test_snapshot_is_byte_identical_to_batch_build(
        self, small_sim, tmp_path
    ):
        data = tmp_path / "data"
        small_sim.materialize_catalog(data, months=[0])
        from repro.storage.catalog import DatasetCatalog

        catalog = DatasetCatalog(data)

        live = AnalysisEngine.from_simulator(small_sim, EngineConfig())
        ingest = IngestEngine(live)
        for dataset in catalog:
            for day in dataset.days:
                if day >= STREAM_DAYS:
                    continue
                rows = day_rows(dataset.atypical_day(day))
                # stream in small uneven batches, the way a producer would
                for start in range(0, len(rows), 257):
                    ingest.add_events(rows[start : start + 257])
        ingest.flush()
        snapshot = ingest.snapshot(tmp_path / "snaps")

        batch = AnalysisEngine.from_simulator(small_sim, EngineConfig())
        for dataset in catalog:
            for day in dataset.days:
                if day < STREAM_DAYS:
                    batch.add_day_records(day, dataset.atypical_day(day))
        batch_dir = tmp_path / "batch"
        batch.save(batch_dir, forest_format="columnar")

        assert _file_digests(snapshot) == _file_digests(batch_dir)


class TestChunkingInvariance:
    """The model must not depend on how the stream was batched."""

    @settings(max_examples=15, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(0, 60),
                st.floats(0.5, 20.0),
            ),
            min_size=1,
            max_size=60,
        ),
        cut=st.integers(0, 59),
        shuffler=st.randoms(use_true_random=False),
    )
    def test_any_chunking_matches_one_shot(
        self, small_sim, records, cut, shuffler
    ):
        sensors = sorted(s.sensor_id for s in small_sim.network)
        generated = [
            (sensors[s % len(sensors)], w, round(sev, 3))
            for s, w, sev in records
        ]
        # the watermark contract only requires window-monotone arrival;
        # within-window order is free and must not matter
        rows = []
        for window in sorted({r[1] for r in generated}):
            in_window = [r for r in generated if r[1] == window]
            shuffler.shuffle(in_window)
            rows.extend(in_window)

        def build(chunks):
            engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
            ingest = IngestEngine(engine)
            for chunk in chunks:
                if chunk:
                    ingest.add_events(chunk)
            ingest.flush()
            return engine

        split = min(cut, len(rows))
        one_shot = build([rows])
        chunked = build([rows[:split], rows[split:]])
        assert _forest_signature(one_shot) == _forest_signature(chunked)

        # streamed == batch: a fresh engine's day build over the same
        # rows, handed over in the catalog's sensor-major record order
        batch = AnalysisEngine.from_simulator(small_sim, EngineConfig())
        spec = batch.window_spec
        last_day = spec.day_of_window(rows[-1][1])
        for day in range(last_day + 1):
            day_rows = sorted(
                (r for r in rows if spec.day_of_window(r[1]) == day),
                key=lambda r: (r[0], r[1]),
            )
            batch.add_day_records(
                day,
                RecordBatch(
                    [r[0] for r in day_rows],
                    [r[1] for r in day_rows],
                    [r[2] for r in day_rows],
                ),
            )
        assert _forest_signature(one_shot) == _forest_signature(batch)
        assert _cube_digest(one_shot) == _cube_digest(batch)

    def test_per_window_feed_matches_one_shot(self, small_sim):
        sensors = sorted(s.sensor_id for s in small_sim.network)
        rng = np.random.default_rng(11)
        rows = sorted(
            (
                int(rng.choice(sensors[:40])),
                int(rng.integers(0, 80)),
                float(rng.uniform(0.5, 10.0)),
            )
            for _ in range(120)
        )
        rows.sort(key=lambda r: r[1])

        def build(chunker):
            engine = AnalysisEngine.from_simulator(small_sim, EngineConfig())
            ingest = IngestEngine(engine)
            for chunk in chunker(rows):
                ingest.add_events(chunk)
            ingest.flush()
            return engine

        one_shot = build(lambda r: [r])

        def per_window(r):
            for window in sorted({row[1] for row in r}):
                yield [row for row in r if row[1] == window]

        assert _forest_signature(one_shot) == _forest_signature(
            build(per_window)
        )
