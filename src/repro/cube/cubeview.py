"""CubeView-style bottom-up baselines (Sec. V-A).

Two model-construction baselines from the evaluation:

* **OC** (original CubeView): scans *all* raw readings of the trace and
  aggregates them into a severity cube over the pre-defined hierarchies.
* **MC** (modified CubeView): the same aggregation restricted to the
  atypical records selected by the **PR** pre-processing step, which is
  also implemented here (PR is shared with the atypical-cluster method:
  "the pre-processing step only needs to carry out once for constructing
  different models").

Both return the constructed :class:`~repro.cube.datacube.SeverityCube`
together with cost accounting (wall time, records scanned), feeding the
Fig. 15 / Fig. 16 experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.records import RecordBatch
from repro.cube.datacube import SeverityCube
from repro.spatial.regions import DistrictGrid
from repro.storage.dataset import CPSDataset
from repro.temporal.hierarchy import Calendar
from repro.temporal.windows import WindowSpec

__all__ = ["ConstructionReport", "preprocess", "build_cube_oc", "build_cube_mc"]


@dataclass
class ConstructionReport:
    """Cost accounting of one model-construction run."""

    method: str
    elapsed_seconds: float
    records_scanned: int
    records_aggregated: int
    model_bytes: int


@dataclass
class PreprocessResult:
    """Outcome of the PR step: per-day atypical batches."""

    batches: List[RecordBatch]
    days: List[int]
    report: ConstructionReport


def preprocess(
    datasets: Sequence[CPSDataset],
    days: Optional[Sequence[int]] = None,
) -> PreprocessResult:
    """PR: scan the raw trace once and select the atypical records.

    This is the step whose cost tracks OC in Fig. 15 (both must scan the
    full dataset), but it runs once and feeds every downstream model.
    """
    started = time.perf_counter()
    batches: List[RecordBatch] = []
    day_list: List[int] = []
    scanned = 0
    kept = 0
    for dataset in datasets:
        wanted = (
            dataset.days if days is None else [d for d in days if d in dataset.days]
        )
        for day, chunk in dataset.scan(wanted):
            scanned += len(chunk)
            mask = chunk.atypical_mask()
            batch = RecordBatch(
                chunk.sensor_ids[mask],
                chunk.windows[mask],
                chunk.congested[mask].astype(np.float64),
            )
            kept += len(batch)
            batches.append(batch)
            day_list.append(day)
    elapsed = time.perf_counter() - started
    report = ConstructionReport(
        method="PR",
        elapsed_seconds=elapsed,
        records_scanned=scanned,
        records_aggregated=kept,
        model_bytes=sum(len(b) * 16 for b in batches),
    )
    return PreprocessResult(batches=batches, days=day_list, report=report)


def build_cube_oc(
    datasets: Sequence[CPSDataset],
    districts: DistrictGrid,
    calendar: Calendar,
    window_spec: WindowSpec = WindowSpec(),
) -> tuple[SeverityCube, ConstructionReport]:
    """OC: aggregate *every* raw reading bottom-up into the severity cube.

    Normal readings carry zero severity but must still be scanned and
    routed through the aggregation hierarchy — exactly why OC is an order
    of magnitude slower than the atypical-data methods in Fig. 15.
    """
    started = time.perf_counter()
    cube = SeverityCube(districts, calendar, window_spec)
    # The original CubeView materializes aggregates over *all* traffic
    # readings at sensor x hour granularity (speed sums and reading
    # counts) — that dense cuboid is what makes the OC model an order of
    # magnitude larger than the atypical-only models in Fig. 16.
    num_sensors = len(districts.network)
    hours = calendar.num_days * 24
    windows_per_hour = max(1, window_spec.windows_per_hour)
    speed_sum = np.zeros((num_sensors, hours), dtype=np.float64)
    reading_count = np.zeros((num_sensors, hours), dtype=np.int64)
    scanned = 0
    for dataset in datasets:
        for _day, chunk in dataset.scan():
            scanned += len(chunk)
            cube.add_readings(
                chunk.sensor_ids,
                chunk.windows,
                chunk.congested.astype(np.float64),
            )
            hour_idx = chunk.windows // windows_per_hour
            np.add.at(speed_sum, (chunk.sensor_ids, hour_idx), chunk.speeds)
            np.add.at(reading_count, (chunk.sensor_ids, hour_idx), 1)
    elapsed = time.perf_counter() - started
    report = ConstructionReport(
        method="OC",
        elapsed_seconds=elapsed,
        records_scanned=scanned,
        records_aggregated=scanned,
        model_bytes=cube.storage_bytes() + speed_sum.nbytes + reading_count.nbytes,
    )
    return cube, report


def build_cube_mc(
    batches: Iterable[RecordBatch],
    districts: DistrictGrid,
    calendar: Calendar,
    window_spec: WindowSpec = WindowSpec(),
) -> tuple[SeverityCube, ConstructionReport]:
    """MC: aggregate the pre-selected atypical records into the cube.

    Consumes the PR output, so its cost is proportional to the 2-5 %
    atypical fraction rather than the full trace.
    """
    started = time.perf_counter()
    cube = SeverityCube(districts, calendar, window_spec)
    aggregated = 0
    for batch in batches:
        cube.add_records(batch)
        aggregated += len(batch)
    elapsed = time.perf_counter() - started
    report = ConstructionReport(
        method="MC",
        elapsed_seconds=elapsed,
        records_scanned=aggregated,
        records_aggregated=aggregated,
        model_bytes=cube.storage_bytes(),
    )
    return cube, report
