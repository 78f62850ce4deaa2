"""Fixtures for the streaming-ingest tests.

Everything runs against the small simulation profile from the root
conftest; ``live_ingest`` wraps a fresh (no built days) analysis engine,
so each test controls the open day and the built days from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.ingest.engine import IngestEngine


@pytest.fixture()
def live_engine(small_sim):
    """A fresh analysis engine over the small simulator (no built days)."""
    return AnalysisEngine.from_simulator(small_sim, EngineConfig())


@pytest.fixture()
def live_ingest(live_engine):
    """An ingest engine over ``live_engine``, opening at day 0."""
    return IngestEngine(live_engine)


def day_rows(batch):
    """A day's :class:`RecordBatch` as stream-ordered (window-major) rows."""
    order = np.lexsort((batch.sensor_ids, batch.windows))
    return [
        (
            int(batch.sensor_ids[i]),
            int(batch.windows[i]),
            float(batch.severities[i]),
        )
        for i in order
    ]
