"""Online atypical-event tracking.

The abstract promises "scalable, flexible and online analysis"; the batch
extractor (Algorithm 1) needs a full day of records, but a deployed CPS
receives readings window by window. :class:`OnlineEventTracker` maintains
the open atypical events incrementally:

* each arriving window's records join an open event when they are within
  ``delta_d`` of one of its recent records (Def. 1 against the event's
  *frontier* — records newer than ``delta_t`` ago);
* records bridging several open events merge them (Def. 2 transitivity);
* an event with no frontier left (quiet for ``delta_t``) is *closed* and
  emitted as a micro-cluster.

The tracker produces exactly the same events as the batch extractor when
fed the same records in window order (the test suite verifies this), while
holding only the open events in memory — the streaming counterpart of
Proposition 1's one-scan claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro import obs
from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.features import SpatialFeature, TemporalFeature
from repro.core.records import RecordBatch
from repro.spatial.grid import SensorGridIndex
from repro.spatial.network import SensorNetwork
from repro.temporal.windows import WindowSpec

__all__ = ["OpenEvent", "OnlineEventTracker"]


@dataclass
class OpenEvent:
    """An atypical event still receiving records.

    Aggregates the micro-cluster features incrementally; the *frontier*
    maps each recently-active sensor to the last window it reported, which
    is all Def. 1 needs to test whether a new record joins the event.
    """

    event_id: int
    spatial: Dict[int, float] = field(default_factory=dict)
    temporal: Dict[int, float] = field(default_factory=dict)
    frontier: Dict[int, int] = field(default_factory=dict)
    last_window: int = -1
    num_records: int = 0

    def absorb(self, sensor: int, window: int, severity: float, tf_key: int) -> None:
        """Fold one record into the running feature maps."""
        self.spatial[sensor] = self.spatial.get(sensor, 0.0) + severity
        self.temporal[tf_key] = self.temporal.get(tf_key, 0.0) + severity
        current = self.frontier.get(sensor)
        if current is None or window > current:
            self.frontier[sensor] = window
        if window > self.last_window:
            self.last_window = window
        self.num_records += 1

    def merge_from(self, other: "OpenEvent") -> None:
        """Absorb another open event after a record bridges the two."""
        for sensor, severity in other.spatial.items():
            self.spatial[sensor] = self.spatial.get(sensor, 0.0) + severity
        for key, severity in other.temporal.items():
            self.temporal[key] = self.temporal.get(key, 0.0) + severity
        for sensor, window in other.frontier.items():
            if self.frontier.get(sensor, -1) < window:
                self.frontier[sensor] = window
        self.last_window = max(self.last_window, other.last_window)
        self.num_records += other.num_records

    def prune_frontier(self, horizon: int) -> None:
        """Forget frontier entries older than ``horizon`` (they can no
        longer relate to any future record)."""
        stale = [s for s, w in self.frontier.items() if w < horizon]
        for sensor in stale:
            del self.frontier[sensor]

    def severity(self) -> float:
        """Total severity absorbed so far, in minutes."""
        return sum(self.spatial.values())


class OnlineEventTracker:
    """Incremental Def. 1-3 event tracking over a window-ordered stream."""

    def __init__(
        self,
        network: SensorNetwork,
        distance_miles: float = 1.5,
        time_gap_minutes: float = 15.0,
        window_spec: WindowSpec = WindowSpec(),
        time_of_day_features: bool = True,
        ids: Optional[ClusterIdGenerator] = None,
    ):
        self._network = network
        self._spec = window_spec
        self._grid = SensorGridIndex(network, distance_miles)
        self._max_gap = window_spec.windows_within(time_gap_minutes)
        self._tf_modulo = (
            window_spec.windows_per_day if time_of_day_features else 0
        )
        self._ids = ids if ids is not None else ClusterIdGenerator()
        self._open: Dict[int, OpenEvent] = {}
        # sensor -> event owning its frontier entry (at most one: events
        # sharing a frontier sensor would have merged)
        self._frontier_owner: Dict[int, int] = {}
        self._next_event_id = 0
        self._last_window_seen = -1
        self._closed_clusters: List[AtypicalCluster] = []

    # ------------------------------------------------------------------
    @property
    def open_events(self) -> List[OpenEvent]:
        """Events still open (not yet emitted), in insertion order."""
        return list(self._open.values())

    # ------------------------------------------------------------------
    def push_window(self, window: int, batch: RecordBatch) -> List[AtypicalCluster]:
        """Feed all atypical records of one window; returns newly closed
        micro-clusters.

        Windows must arrive in non-decreasing order; ``batch`` must only
        contain records of ``window``.
        """
        if window < self._last_window_seen:
            raise ValueError(
                f"windows must arrive in order: got {window} after "
                f"{self._last_window_seen}"
            )
        if len(batch) and not np.all(batch.windows == window):
            raise ValueError("batch contains records of a different window")
        self._last_window_seen = window
        closed = self._close_stale(window)

        tf_key = window % self._tf_modulo if self._tf_modulo else window
        for sensor, severity in zip(
            batch.sensor_ids.tolist(), batch.severities.tolist()
        ):
            self._ingest(int(sensor), window, float(severity), tf_key)
        if obs.enabled():
            obs.counter("streaming.records").inc(len(batch))
            obs.gauge("streaming.events.open").set(len(self._open))
        return closed

    def flush(self) -> List[AtypicalCluster]:
        """Close every remaining open event (end of stream)."""
        clusters = [self._to_cluster(e) for e in self._open.values() if e.num_records]
        clusters.sort(key=lambda c: (-c.severity(), c.cluster_id))
        self._open.clear()
        self._frontier_owner.clear()
        self._closed_clusters.extend(clusters)
        if obs.enabled():
            obs.counter("streaming.events.closed").inc(len(clusters))
            obs.gauge("streaming.events.open").set(0)
        return clusters

    @property
    def closed_clusters(self) -> List[AtypicalCluster]:
        """All micro-clusters emitted so far (closed + flushed)."""
        return list(self._closed_clusters)

    # ------------------------------------------------------------------
    def _ingest(self, sensor: int, window: int, severity: float, tf_key: int) -> None:
        touched: Set[int] = set()
        for neighbour in self._grid.neighbours(sensor):
            owner = self._frontier_owner.get(neighbour)
            if owner is None:
                continue
            event = self._open.get(owner)
            if event is None:  # stale ownership after a merge
                continue
            last = event.frontier.get(neighbour)
            if last is not None and window - last <= self._max_gap:
                touched.add(owner)

        if not touched:
            event = OpenEvent(event_id=self._next_event_id)
            self._next_event_id += 1
            self._open[event.event_id] = event
            obs.counter("streaming.events.opened").inc()
        else:
            survivors = sorted(touched)
            event = self._open[survivors[0]]
            if len(survivors) > 1:
                obs.counter("streaming.events.merged").inc(len(survivors) - 1)
            for other_id in survivors[1:]:
                other = self._open.pop(other_id)
                event.merge_from(other)
                for s in other.frontier:
                    self._frontier_owner[s] = event.event_id
        event.absorb(sensor, window, severity, tf_key)
        self._frontier_owner[sensor] = event.event_id

    def _close_stale(self, window: int) -> List[AtypicalCluster]:
        horizon = window - self._max_gap
        closed: List[AtypicalCluster] = []
        for event_id in list(self._open):
            event = self._open[event_id]
            if event.last_window < horizon:
                del self._open[event_id]
                for sensor, last in event.frontier.items():
                    if self._frontier_owner.get(sensor) == event_id:
                        del self._frontier_owner[sensor]
                closed.append(self._to_cluster(event))
            else:
                event.prune_frontier(horizon)
        closed.sort(key=lambda c: (-c.severity(), c.cluster_id))
        self._closed_clusters.extend(closed)
        if closed:
            obs.counter("streaming.events.closed").inc(len(closed))
        return closed

    def _to_cluster(self, event: OpenEvent) -> AtypicalCluster:
        # the open-event accumulators already hold positive per-key sums,
        # so the array-backed features can skip the per-item coercion loop
        return AtypicalCluster.micro(
            SpatialFeature.from_aggregates(event.spatial),
            TemporalFeature.from_aggregates(event.temporal),
            self._ids,
        )
