"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.features import SpatialFeature, TemporalFeature
from repro.core.integration import ClusterIntegrator, IntegrationResult
from repro.core.records import AtypicalRecord, RecordBatch
from repro.simulate import SimulationConfig, TrafficSimulator
from repro.spatial.geometry import Point
from repro.spatial.network import Highway, Sensor, SensorNetwork
from repro.temporal.hierarchy import Calendar
from repro.temporal.windows import WindowSpec

_ids = ClusterIdGenerator(10_000)


def make_cluster(
    spatial: dict[int, float],
    temporal: dict[int, float] | None = None,
    cluster_id: int | None = None,
    level: int = 0,
    members: tuple[int, ...] = (),
) -> AtypicalCluster:
    """Build a cluster; temporal defaults to one window carrying the
    spatial total so the SF/TF invariant holds."""
    if temporal is None:
        temporal = {0: sum(spatial.values())}
    return AtypicalCluster(
        cluster_id=cluster_id if cluster_id is not None else _ids.next_id(),
        spatial=SpatialFeature(spatial),
        temporal=TemporalFeature(temporal),
        level=level,
        members=members,
    )


def integrate(
    clusters,
    threshold: float = 0.5,
    similarity: str = "avg",
    method: str = "indexed",
    cache=None,
) -> IntegrationResult:
    """One Algorithm 3 run with a fresh :class:`ClusterIntegrator`."""
    return ClusterIntegrator(threshold, similarity, method).integrate(
        clusters, cache=cache
    )


def make_batch(records: list[tuple[int, int, float]]) -> RecordBatch:
    """RecordBatch from (sensor, window, severity) triples."""
    return RecordBatch.from_records(
        AtypicalRecord(s, w, f) for s, w, f in records
    )


def line_network(num_sensors: int = 10, spacing: float = 1.0) -> SensorNetwork:
    """A single straight eastbound highway with evenly spaced sensors."""
    highway = Highway(0, "Fwy TestE", (Point(0, 0), Point(num_sensors * spacing, 0)))
    sensors = [
        Sensor(i, Point(i * spacing, 0.0), 0, i * spacing, i)
        for i in range(num_sensors)
    ]
    return SensorNetwork(sensors, [highway])


def two_road_network(spacing: float = 1.0, gap: float = 5.0) -> SensorNetwork:
    """Two parallel highways ``gap`` miles apart, 6 sensors each."""
    h0 = Highway(0, "Fwy AE", (Point(0, 0), Point(6 * spacing, 0)))
    h1 = Highway(1, "Fwy BE", (Point(0, gap), Point(6 * spacing, gap)))
    sensors = [
        Sensor(i, Point(i * spacing, 0.0), 0, i * spacing, i) for i in range(6)
    ] + [
        Sensor(6 + i, Point(i * spacing, gap), 1, i * spacing, i) for i in range(6)
    ]
    return SensorNetwork(sensors, [h0, h1])


@pytest.fixture(scope="session")
def small_sim() -> TrafficSimulator:
    """The small simulation profile, shared across the session."""
    return TrafficSimulator(SimulationConfig.small())


@pytest.fixture(scope="session")
def bench_sim() -> TrafficSimulator:
    """The benchmark simulation profile (heavier; used sparingly)."""
    return TrafficSimulator(SimulationConfig.benchmark())


@pytest.fixture()
def spec() -> WindowSpec:
    return WindowSpec()


@pytest.fixture()
def calendar() -> Calendar:
    return Calendar()


@pytest.fixture(scope="session")
def small_batches(small_sim) -> dict[int, RecordBatch]:
    """Seven days of atypical records from the small simulator."""
    batches = {}
    for day in range(7):
        chunk = small_sim.simulate_day(day)
        mask = chunk.atypical_mask()
        batches[day] = RecordBatch(
            chunk.sensor_ids[mask],
            chunk.windows[mask],
            chunk.congested[mask].astype(np.float64),
        )
    return batches
