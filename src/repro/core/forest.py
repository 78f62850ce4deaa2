"""Clustering trees and the atypical forest (Sec. III-C, Fig. 10).

Micro-clusters are the leaves; macro-clusters integrate them level by level
(day -> week -> month), and the hierarchy of different aggregation paths
forms the *atypical forest*. In practical deployments only the lower levels
are materialized (Sec. IV) and higher levels are integrated on demand by
the query processor.

The forest keeps a registry of every cluster it has produced, so the
clustering tree of any macro-cluster can be traversed through the
``members`` provenance links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.integration import ClusterIntegrator, SimilarityCache
from repro.spatial.regions import QueryRegion
from repro.temporal.hierarchy import Calendar
from repro.temporal.windows import WindowSpec

__all__ = ["AtypicalForest", "ForestStats"]


@dataclass(frozen=True)
class ForestStats:
    """Cluster counts per materialized level (feeds Fig. 20)."""

    num_days: int
    num_micro: int
    num_week_macro: int
    num_month_macro: int


class AtypicalForest:
    """Partially materialized hierarchy of atypical clusters.

    Day-level micro-clusters are always stored; week and month levels are
    materialized lazily through :meth:`week_clusters` / :meth:`month_clusters`
    using the configured integrator (Algorithm 3).
    """

    def __init__(
        self,
        calendar: Calendar,
        window_spec: WindowSpec = WindowSpec(),
        integrator: Optional[ClusterIntegrator] = None,
        ids: Optional[ClusterIdGenerator] = None,
    ):
        self._calendar = calendar
        self._spec = window_spec
        self._integrator = integrator if integrator is not None else ClusterIntegrator()
        self._ids = ids if ids is not None else ClusterIdGenerator()
        self._micro_by_day: Dict[int, List[AtypicalCluster]] = {}
        self._week_cache: Dict[int, List[AtypicalCluster]] = {}
        self._month_cache: Dict[int, List[AtypicalCluster]] = {}
        self._registry: Dict[int, AtypicalCluster] = {}
        # shared across every level materialization: after add_day
        # invalidates a week/month, re-integration only scores the pairs
        # the new day introduced (cluster ids are never reused, so stale
        # entries are simply never looked up again)
        self._sim_cache = SimilarityCache()
        # how the forest was constructed (set by the sharded builder);
        # deliberately independent of the worker count so that serial and
        # parallel builds of the same shard plan serialize identically
        self._provenance: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def calendar(self) -> Calendar:
        """The day/week/month calendar the forest levels follow."""
        return self._calendar

    @property
    def window_spec(self) -> WindowSpec:
        """The time-of-day window spec shared with extraction."""
        return self._spec

    @property
    def ids(self) -> ClusterIdGenerator:
        """The forest's cluster-id generator; ids are never reused."""
        return self._ids

    @property
    def integrator(self) -> ClusterIntegrator:
        """The Algorithm 3 integrator used to materialize levels."""
        return self._integrator

    @property
    def similarity_cache(self) -> SimilarityCache:
        """The pair-similarity memo shared by all level materializations."""
        return self._sim_cache

    @property
    def days(self) -> List[int]:
        """Days with stored micro-clusters, ascending."""
        return sorted(self._micro_by_day)

    @property
    def provenance(self) -> Optional[Dict[str, object]]:
        """Shard provenance recorded by the parallel builder, or None.

        A JSON-compatible description of how the day partition was
        constructed: the shard axis (``day`` / ``day-district``), the
        district connectivity groups, and per-shard cluster-id ranges. It
        is a function of the shard *plan*, never of the worker count, so
        ``--workers 1`` and ``--workers 4`` builds serialize byte-for-byte
        identically (see :mod:`repro.storage.forest_io`).
        """
        return self._provenance

    def set_provenance(self, provenance: Optional[Dict[str, object]]) -> None:
        """Attach shard provenance (see :attr:`provenance`)."""
        self._provenance = dict(provenance) if provenance is not None else None

    # ------------------------------------------------------------------
    def add_day(self, day: int, clusters: Sequence[AtypicalCluster]) -> None:
        """Store the micro-clusters extracted for ``day``.

        Invalidates any cached week/month materialization covering the day.
        A day outside the calendar raises before anything is stored.
        """
        if day in self._micro_by_day:
            raise ValueError(f"day {day} already added to the forest")
        week = self._calendar.week_of_day(day)
        month = self._calendar.month_of_day(day)
        self._micro_by_day[day] = list(clusters)
        for cluster in clusters:
            self._register(cluster)
        self._week_cache.pop(week, None)
        self._month_cache.pop(month, None)

    def _register(self, cluster: AtypicalCluster) -> None:
        existing = self._registry.get(cluster.cluster_id)
        if existing is not None and existing is not cluster:
            raise ValueError(f"duplicate cluster id in forest: {cluster.cluster_id}")
        self._registry[cluster.cluster_id] = cluster

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def day_clusters(self, day: int) -> List[AtypicalCluster]:
        """Micro-clusters of one day (empty if the day was never added)."""
        return list(self._micro_by_day.get(day, ()))

    def micro_clusters(
        self,
        days: Iterable[int],
        region: Optional[QueryRegion] = None,
    ) -> List[AtypicalCluster]:
        """Micro-clusters of the given days, optionally region-filtered.

        A cluster qualifies when at least one of its sensors lies in the
        query region — events straddling the region boundary still
        contribute severity inside it.
        """
        result: List[AtypicalCluster] = []
        for day in days:
            for cluster in self._micro_by_day.get(day, ()):
                if region is None or cluster.intersects_sensors(region.sensor_ids):
                    result.append(cluster)
        return result

    def week_clusters(self, week: int) -> List[AtypicalCluster]:
        """Macro-clusters of one calendar week (materialized on demand)."""
        cached = self._week_cache.get(week)
        if cached is None:
            micro = self.micro_clusters(self._calendar.week_day_range(week))
            cached = self._integrate_and_register(micro)
            self._week_cache[week] = cached
        return list(cached)

    def month_clusters(self, month: int) -> List[AtypicalCluster]:
        """Macro-clusters of one calendar month.

        Follows the day -> week -> month aggregation path of Fig. 10: the
        month level integrates the materialized week clusters, exercising
        the associativity of the merge (Property 3).
        """
        cached = self._month_cache.get(month)
        if cached is None:
            weeks = sorted(
                {
                    self._calendar.week_of_day(day)
                    for day in self._calendar.month_day_range(month)
                    if day in self._micro_by_day
                }
            )
            inputs: List[AtypicalCluster] = []
            for week in weeks:
                inputs.extend(self.week_clusters(week))
            cached = self._integrate_and_register(inputs)
            self._month_cache[month] = cached
        return list(cached)

    def materialize(self) -> "ForestStats":
        """Materialize every week and month level covering the stored days.

        Follows the day -> week -> month path of Fig. 10 bottom-up, so the
        month level consumes the freshly built week clusters; all candidate
        pairs of one level are scored through the batch similarity kernels
        and remembered in the shared cache for later re-materializations.
        """
        weeks = sorted({self._calendar.week_of_day(d) for d in self._micro_by_day})
        for week in weeks:
            self.week_clusters(week)
        months = sorted({self._calendar.month_of_day(d) for d in self._micro_by_day})
        for month in months:
            self.month_clusters(month)
        return self.stats()

    def _integrate_and_register(
        self, clusters: List[AtypicalCluster]
    ) -> List[AtypicalCluster]:
        result = self._integrator.integrate(clusters, self._ids, self._sim_cache)
        # register intermediate merge products too: the clustering tree
        # walks ``members`` links through them down to the micro leaves
        for cluster in result.created.values():
            self._register(cluster)
        for cluster in result.clusters:
            self._register(cluster)
        return result.clusters

    # ------------------------------------------------------------------
    # Externally computed materializations (see repro.parallel.reduce)
    # ------------------------------------------------------------------
    def install_week(
        self,
        week: int,
        clusters: Sequence[AtypicalCluster],
        created: Sequence[AtypicalCluster] = (),
    ) -> None:
        """Install a week materialization computed outside the forest.

        The parallel builder integrates week shards in worker processes
        (Algorithm 3) and installs the remapped results here. Registration
        order matches :meth:`_integrate_and_register` — intermediate merge
        products first, result clusters second — so a forest populated
        this way serializes identically to one that materialized in
        process. Clusters that survived integration unmerged must be the
        registry's own objects (use :meth:`lookup`), because re-registering
        an id with a different object is an error.
        """
        if week in self._week_cache:
            raise ValueError(f"week {week} already materialized")
        for cluster in created:
            self._register(cluster)
        for cluster in clusters:
            self._register(cluster)
        self._week_cache[week] = list(clusters)

    def install_month(
        self,
        month: int,
        clusters: Sequence[AtypicalCluster],
        created: Sequence[AtypicalCluster] = (),
    ) -> None:
        """Install a month materialization (see :meth:`install_week`)."""
        if month in self._month_cache:
            raise ValueError(f"month {month} already materialized")
        for cluster in created:
            self._register(cluster)
        for cluster in clusters:
            self._register(cluster)
        self._month_cache[month] = list(clusters)

    # ------------------------------------------------------------------
    # Provenance (clustering trees)
    # ------------------------------------------------------------------
    def lookup(self, cluster_id: int) -> AtypicalCluster:
        """The registered cluster with this id (KeyError if unknown)."""
        return self._registry[cluster_id]

    def children_of(self, cluster: AtypicalCluster) -> List[AtypicalCluster]:
        """Registered child clusters that were merged into ``cluster``."""
        return [self._registry[m] for m in cluster.members if m in self._registry]

    def leaves_of(self, cluster: AtypicalCluster) -> List[AtypicalCluster]:
        """Micro-cluster leaves of a macro-cluster's clustering tree."""
        if cluster.is_micro:
            return [cluster]
        leaves: List[AtypicalCluster] = []
        stack = [cluster]
        while stack:
            node = stack.pop()
            if node.is_micro:
                leaves.append(node)
            else:
                stack.extend(self.children_of(node))
        return leaves

    # ------------------------------------------------------------------
    # Persistence support (see repro.storage.forest_io)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Structural snapshot: every registered cluster plus the id maps."""
        return {
            "clusters": list(self._registry.values()),
            "micro_by_day": {
                day: [c.cluster_id for c in clusters]
                for day, clusters in self._micro_by_day.items()
            },
            "week_cache": {
                week: [c.cluster_id for c in clusters]
                for week, clusters in self._week_cache.items()
            },
            "month_cache": {
                month: [c.cluster_id for c in clusters]
                for month, clusters in self._month_cache.items()
            },
            "provenance": self._provenance,
        }

    def import_state(
        self,
        clusters: Sequence[AtypicalCluster],
        micro_by_day: Dict[int, List[int]],
        week_cache: Dict[int, List[int]],
        month_cache: Dict[int, List[int]],
        provenance: Optional[Dict[str, object]] = None,
    ) -> None:
        """Restore a snapshot into an empty forest."""
        if self._registry or self._micro_by_day:
            raise ValueError("import_state requires an empty forest")
        self._provenance = dict(provenance) if provenance is not None else None
        for cluster in clusters:
            self._register(cluster)
        for day, ids in micro_by_day.items():
            self._micro_by_day[day] = [self._registry[i] for i in ids]
        for week, ids in week_cache.items():
            self._week_cache[week] = [self._registry[i] for i in ids]
        for month, ids in month_cache.items():
            self._month_cache[month] = [self._registry[i] for i in ids]

    # ------------------------------------------------------------------
    def stats(self) -> ForestStats:
        """Counts of materialized clusters at each level."""
        return ForestStats(
            num_days=len(self._micro_by_day),
            num_micro=sum(len(v) for v in self._micro_by_day.values()),
            num_week_macro=sum(len(v) for v in self._week_cache.values()),
            num_month_macro=sum(len(v) for v in self._month_cache.values()),
        )

    def __iter__(self) -> Iterator[AtypicalCluster]:
        for day in sorted(self._micro_by_day):
            yield from self._micro_by_day[day]
