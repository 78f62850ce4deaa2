"""Sensor-level severity cube with R-tree range aggregation.

Sec. VI surveys spatial OLAP baselines built on aggregation R-trees
(Papadias et al.): rectangle hierarchies over the raw sensors instead of
pre-defined zipcode areas. This module provides that substrate:

* :class:`SensorDayCube` — the finest practical cuboid, ``sensor x day``
  total severity (the district cube of :mod:`repro.cube.datacube` is its
  rollup);
* :class:`RTreeSeverityProvider` — answers ``F(W, T)`` for *arbitrary*
  rectangles through an aggregation R-tree over the sensor points, and
  implements the
  :class:`~repro.core.query.RegionSeverityProvider` protocol so the
  red-zone filter can run on R-tree rectangles instead of the district
  grid (the paper's remark that regions may be partitioned "by zipcode
  areas, streets, highway mileages, or the R-tree rectangles").
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.records import RecordBatch
from repro.spatial.geometry import BBox
from repro.spatial.network import SensorNetwork
from repro.spatial.regions import District
from repro.spatial.rtree import RTree
from repro.temporal.hierarchy import Calendar
from repro.temporal.windows import WindowSpec

__all__ = ["SensorDayCube", "RTreeSeverityProvider"]


class SensorDayCube:
    """Total severity per ``(sensor, day)`` — the finest base cuboid."""

    def __init__(
        self,
        network: SensorNetwork,
        calendar: Calendar,
        window_spec: WindowSpec = WindowSpec(),
    ):
        self._network = network
        self._calendar = calendar
        self._spec = window_spec
        self._cells = np.zeros((len(network), calendar.num_days), dtype=np.float64)
        self._records_added = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._cells.shape

    @property
    def records_added(self) -> int:
        return self._records_added

    def add_records(self, batch: RecordBatch) -> None:
        if not len(batch):
            return
        days = batch.windows // self._spec.windows_per_day
        if int(days.max()) >= self._calendar.num_days:
            raise ValueError("record window beyond the cube's calendar")
        np.add.at(self._cells, (batch.sensor_ids, days), batch.severities)
        self._records_added += len(batch)

    def day_weights(self, days: Sequence[int]) -> Dict[int, float]:
        """Per-sensor totals over ``days`` (weights for the R-tree)."""
        idx = np.asarray(list(days), dtype=np.int64)
        totals = self._cells[:, idx].sum(axis=1)
        return {int(s): float(v) for s, v in enumerate(totals) if v > 0}

    def total_severity(self) -> float:
        return float(self._cells.sum())

    def storage_bytes(self) -> int:
        return int(self._cells.nbytes)


class RTreeSeverityProvider:
    """``F(W, T)`` over arbitrary rectangles via an aggregation R-tree.

    The R-tree is built once over the fixed sensor points; per query-day
    range, the per-sensor weights are refreshed from the sensor-day cube
    and range aggregates reuse subtree sums (fully contained nodes answer
    without descending).
    """

    def __init__(self, cube: SensorDayCube, network: SensorNetwork, fanout: int = 16):
        self._cube = cube
        self._network = network
        self._tree = RTree(
            [(s.sensor_id, s.location) for s in network], fanout=fanout
        )
        self._weights_key: Optional[tuple] = None

    @property
    def tree(self) -> RTree:
        return self._tree

    def _refresh(self, days: Sequence[int]) -> None:
        key = tuple(days)
        if key != self._weights_key:
            self._tree.set_weights(self._cube.day_weights(days))
            self._weights_key = key

    # ------------------------------------------------------------------
    def rectangle_severity(self, bbox: BBox, days: Sequence[int]) -> float:
        """``F(W, T)`` for an arbitrary rectangle ``W``."""
        self._refresh(days)
        total, _ = self._tree.range_aggregate(bbox)
        return total

    def district_severity(self, district: District, days: Sequence[int]) -> float:
        """RegionSeverityProvider protocol: aggregate the district's box.

        District cells are half-open tiles, so the aggregate uses the
        R-tree's half-open mode — boundary sensors are counted exactly
        once across adjacent regions, matching the district cube.
        """
        self._refresh(days)
        total, _ = self._tree.range_aggregate(district.bbox, closed=False)
        return total
