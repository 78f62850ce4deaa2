"""The atypical cluster model (Definition 4 and Sec. III-C).

An :class:`AtypicalCluster` is the succinct summary of one or more atypical
events: a cluster id, a spatial feature and a temporal feature. Micro-
clusters summarize a single event (Algorithm 1); macro-clusters integrate
several micro-clusters (Algorithms 2-3) and remember which clusters they
merged so that the clustering trees of the atypical forest can be rebuilt.

Invariant: ``sum(SF) == sum(TF) == severity(C)`` — both features aggregate
the same underlying record severities, only grouped differently. The test
suite checks this invariant on every construction path.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.core.features import SpatialFeature, TemporalFeature

__all__ = ["AtypicalCluster", "ClusterIdGenerator"]

_SEVERITY_TOLERANCE = 1e-6


class ClusterIdGenerator:
    """Thread-safe source of fresh cluster ids.

    Algorithm 2 requires "a new ID is generated for the macro-cluster";
    ids only need to be unique within a session, so a counter suffices.
    """

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def next_id(self) -> int:
        """Return the next unique cluster id (thread-safe, never reused)."""
        with self._lock:
            return next(self._counter)


_DEFAULT_IDS = ClusterIdGenerator()


@dataclass(frozen=True)
class AtypicalCluster:
    """An atypical cluster ``C = <ID, SF, TF>``.

    Attributes
    ----------
    cluster_id:
        Unique id within the analysis session.
    spatial:
        ``SF``: severity per sensor.
    temporal:
        ``TF``: severity per time window.
    level:
        Aggregation level of the cluster: 0 for micro-clusters, one more
        than the deepest child for macro-clusters. Purely informational.
    members:
        Ids of the clusters merged into this one (empty for micro-clusters).
    """

    cluster_id: int
    spatial: SpatialFeature
    temporal: TemporalFeature
    level: int = 0
    members: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.spatial) == 0 or len(self.temporal) == 0:
            raise ValueError("atypical cluster features must be non-empty")
        sf_total = self.spatial.total()
        tf_total = self.temporal.total()
        if abs(sf_total - tf_total) > _SEVERITY_TOLERANCE * max(1.0, sf_total):
            raise ValueError(
                "spatial and temporal features disagree on total severity: "
                f"{sf_total} vs {tf_total}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def micro(
        cls,
        spatial: SpatialFeature,
        temporal: TemporalFeature,
        ids: Optional[ClusterIdGenerator] = None,
    ) -> "AtypicalCluster":
        """Build a micro-cluster from freshly aggregated features."""
        generator = ids if ids is not None else _DEFAULT_IDS
        return cls(generator.next_id(), spatial, temporal, level=0)

    # ------------------------------------------------------------------
    @property
    def is_micro(self) -> bool:
        """True when the cluster has no children (a day-level leaf, Def. 4)."""
        return not self.members

    @property
    def sensor_ids(self) -> frozenset[int]:
        """The sensor set ``S`` of the cluster."""
        return self.spatial.keys()

    @property
    def windows(self) -> frozenset[int]:
        """The time-window set ``T`` of the cluster."""
        return self.temporal.keys()

    def severity(self) -> float:
        """``severity(C) = sum_SF mu_i = sum_TF nu_j`` (Def. 5)."""
        return self.spatial.total()

    def start_window(self) -> int:
        """First atypical window — 'when does the event start' (Example 1)."""
        return self.temporal.min_key()

    def most_serious_sensor(self) -> Tuple[int, float]:
        """Sensor with the highest aggregated severity (Example 4)."""
        return self.spatial.argmax()

    def peak_window(self) -> Tuple[int, float]:
        """Window with the highest aggregated severity."""
        return self.temporal.argmax()

    def intersects_sensors(self, sensor_ids: Iterable[int]) -> bool:
        """True if any of ``sensor_ids`` belongs to the cluster.

        Used by the red-zone filter: a micro-cluster is kept if it
        intersects any red zone (Sec. IV, Example 7).
        """
        own = self.spatial
        return any(s in own for s in sensor_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AtypicalCluster(id={self.cluster_id}, level={self.level}, "
            f"{len(self.spatial)} sensors, {len(self.temporal)} windows, "
            f"severity={self.severity():.1f})"
        )
