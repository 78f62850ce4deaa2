"""High-level analysis engine — the library's main entry point.

Ties the whole pipeline of Fig. 2 together:

1. **Atypical forest construction** (offline): scan the CPS datasets,
   select atypical records (PR), extract atypical events and summarize
   them as micro-clusters (Algorithm 1), store them per day in the
   atypical forest, and load the severity cube used for red-zone guidance.
2. **Analytical query processing** (online): run ``Q(W, T)`` with the
   All / Pru / Gui strategies (Sec. IV).

Typical use::

    engine = AnalysisEngine.from_simulator(sim)
    engine.build(days=range(31))
    result = engine.query(engine.whole_city(), first_day=0, num_days=7)
    for cluster in result.significant():
        print(engine.describe(cluster))
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro import obs
from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.events import EventExtractor, ExtractionParams
from repro.core.forest import AtypicalForest
from repro.core.integration import ClusterIntegrator
from repro.core.query import AnalyticalQuery, QueryProcessor, QueryResult
from repro.core.records import RecordBatch
from repro.cube.datacube import SeverityCube
from repro.spatial.network import SensorNetwork
from repro.spatial.regions import DistrictGrid, QueryRegion
from repro.storage.catalog import DatasetCatalog
from repro.temporal.hierarchy import Calendar
from repro.temporal.windows import WindowSpec

__all__ = ["EngineConfig", "AnalysisEngine"]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EngineConfig:
    """Algorithm parameters (defaults follow Fig. 14)."""

    distance_miles: float = 1.5
    time_gap_minutes: float = 15.0
    similarity_threshold: float = 0.5
    balance_function: str = "avg"
    delta_s: float = 0.05
    extraction_method: str = "grid"
    integration_method: str = "indexed"

    def extraction_params(self) -> ExtractionParams:
        return ExtractionParams(self.distance_miles, self.time_gap_minutes)

    def integrator(self) -> ClusterIntegrator:
        return ClusterIntegrator(
            self.similarity_threshold,
            self.balance_function,
            self.integration_method,
        )


class AnalysisEngine:
    """Builds the atypical forest and answers analytical queries."""

    def __init__(
        self,
        network: SensorNetwork,
        districts: DistrictGrid,
        calendar: Calendar,
        window_spec: WindowSpec = WindowSpec(),
        config: EngineConfig = EngineConfig(),
    ):
        self._network = network
        self._districts = districts
        self._calendar = calendar
        self._spec = window_spec
        self._config = config
        self._ids = ClusterIdGenerator()
        self._extractor = EventExtractor(
            network,
            config.extraction_params(),
            window_spec,
            method=config.extraction_method,
        )
        self._forest = AtypicalForest(
            calendar, window_spec, config.integrator(), self._ids
        )
        self._cube = SeverityCube(districts, calendar, window_spec)
        self._processor = QueryProcessor(
            self._forest, districts, self._cube, config.delta_s
        )
        self._built_days: set[int] = set()
        # execution summary of the last parallel build (engine.json only —
        # never serialized into the forest, which must stay independent of
        # how it was computed)
        self._build_info: Optional[dict] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_simulator(
        cls, simulator, config: EngineConfig = EngineConfig()
    ) -> "AnalysisEngine":
        """Engine over a :class:`~repro.simulate.generator.TrafficSimulator`."""
        return cls(
            network=simulator.network,
            districts=simulator.districts(),
            calendar=simulator.calendar,
            window_spec=simulator.window_spec,
            config=config,
        )

    # ------------------------------------------------------------------
    @property
    def network(self) -> SensorNetwork:
        return self._network

    @property
    def districts(self) -> DistrictGrid:
        return self._districts

    @property
    def calendar(self) -> Calendar:
        return self._calendar

    @property
    def window_spec(self) -> WindowSpec:
        return self._spec

    @property
    def forest(self) -> AtypicalForest:
        return self._forest

    @property
    def cube(self) -> SeverityCube:
        return self._cube

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def built_days(self) -> frozenset[int]:
        return frozenset(self._built_days)

    def whole_city(self) -> QueryRegion:
        return QueryRegion.whole_network(self._network)

    # ------------------------------------------------------------------
    # Offline construction (Fig. 2, left)
    # ------------------------------------------------------------------
    def add_day_records(self, day: int, batch: RecordBatch) -> List[AtypicalCluster]:
        """Ingest one day of atypical records: Algorithm 1 + cube load.

        The one day build: the streaming ingest path (:mod:`repro.ingest`)
        closes each live day with this same call, which is why a streamed
        day is identical to a batch-built one.
        """
        if day in self._built_days:
            raise ValueError(f"day {day} already built")
        with obs.span("extract.day") as sp:
            clusters = self._extractor.extract_micro_clusters(batch, self._ids)
            sp.set(day=day, records=len(batch), clusters=len(clusters))
        self._forest.add_day(day, clusters)
        self._cube.add_records(batch)
        self._built_days.add(day)
        _log.debug(
            "day built",
            extra={"day": day, "records": len(batch), "clusters": len(clusters)},
        )
        return clusters

    def build_from_catalog(
        self, catalog: DatasetCatalog, days: Optional[Iterable[int]] = None
    ) -> int:
        """Construct the forest from stored datasets; returns days built."""
        count = 0
        with obs.span("build.catalog") as sp:
            for dataset in catalog:
                wanted = (
                    dataset.days
                    if days is None
                    else [d for d in days if d in dataset.days]
                )
                for day in wanted:
                    self.add_day_records(day, dataset.atypical_day(day))
                    count += 1
            sp.set(days=count)
        _log.info("forest built from catalog", extra={"days": count})
        return count

    def build_from_catalog_parallel(
        self,
        catalog: DatasetCatalog,
        days: Optional[Iterable[int]] = None,
        workers: int = 1,
        shard_by: str = "day",
        materialize: bool = False,
    ):
        """Construct the forest with the sharded parallel builder.

        Produces a forest and cube **byte-identical** to
        :meth:`build_from_catalog` at any worker count (the reducer
        replays the serial id assignment; see :mod:`repro.parallel`).
        ``workers=1`` runs the same shard/reduce path in process, so the
        CLI routes every build through here. Returns the
        :class:`~repro.parallel.builder.ParallelBuildReport`.
        """
        from repro.parallel.builder import ParallelForestBuilder

        builder = ParallelForestBuilder(
            self,
            catalog,
            workers=workers,
            shard_by=shard_by,
            materialize=materialize,
        )
        day_list = None if days is None else list(days)
        # same top-level span name as build_from_catalog: both are "the
        # offline catalog build", whatever the execution strategy
        with obs.span("build.catalog") as sp:
            report = builder.build(day_list)
            sp.set(days=report.days_built, workers=workers, shard_by=shard_by)
        self._built_days.update(self._forest.days)
        self._build_info = report.to_dict()
        _log.info(
            "forest built in parallel",
            extra={"days": report.days_built, "workers": report.workers},
        )
        return report

    def build_from_simulator(self, simulator, days: Iterable[int]) -> int:
        """Construct the forest directly from a simulator (no disk files)."""
        count = 0
        with obs.span("build.simulator") as sp:
            for day in days:
                chunk = simulator.simulate_day(day)
                mask = chunk.atypical_mask()
                batch = RecordBatch(
                    chunk.sensor_ids[mask],
                    chunk.windows[mask],
                    chunk.congested[mask].astype(np.float64),
                )
                self.add_day_records(day, batch)
                count += 1
            sp.set(days=count)
        _log.info("forest built from simulator", extra={"days": count})
        return count

    # ------------------------------------------------------------------
    # Persistence (split the offline and online halves of Fig. 2)
    # ------------------------------------------------------------------
    def save(self, directory, forest_format: str = "pickle") -> None:
        """Persist the constructed model (forest + cube + built days).

        ``forest_format`` selects the forest container — ``"pickle"``
        (legacy eager blob) or ``"columnar"`` (memory-mappable, loaded
        lazily); see :mod:`repro.storage.columnar`. :meth:`load` reopens
        either transparently.
        """
        from pathlib import Path

        from repro.storage.forest_io import save_cube, save_forest

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_forest(self._forest, directory / "forest.bin", format=forest_format)
        save_cube(self._cube, directory / "cube.bin")
        meta = {
            "built_days": sorted(self._built_days),
            "delta_s": self._config.delta_s,
            "similarity_threshold": self._config.similarity_threshold,
            "balance_function": self._config.balance_function,
        }
        if self._build_info is not None:
            meta["build"] = self._build_info
        import json

        (directory / "engine.json").write_text(json.dumps(meta))

    @classmethod
    def load(
        cls,
        directory,
        network: SensorNetwork,
        districts: DistrictGrid,
        config: EngineConfig = EngineConfig(),
    ) -> "AnalysisEngine":
        """Reopen a model saved by :meth:`save` for online querying.

        ``network`` and ``districts`` must be the deployment the model was
        built over (e.g. rebuilt via
        :meth:`~repro.simulate.generator.TrafficSimulator.from_catalog_dir`).
        """
        import json
        from pathlib import Path

        from repro.storage.forest_io import load_cube, load_forest

        directory = Path(directory)
        forest = load_forest(directory / "forest.bin", config.integrator())
        engine = cls(
            network,
            districts,
            forest.calendar,
            forest.window_spec,
            config,
        )
        engine._forest = forest
        engine._ids = forest.ids
        engine._cube = load_cube(
            directory / "cube.bin", districts, forest.calendar, forest.window_spec
        )
        engine._processor = QueryProcessor(
            forest, districts, engine._cube, config.delta_s
        )
        meta = json.loads((directory / "engine.json").read_text())
        engine._built_days = set(meta["built_days"])
        return engine

    # ------------------------------------------------------------------
    # Online queries (Fig. 2, right)
    # ------------------------------------------------------------------
    def query(
        self,
        region: QueryRegion,
        first_day: int,
        num_days: int,
        strategy: str = "gui",
        final_check: bool = False,
        delta_s: Optional[float] = None,
        use_materialized: bool = False,
        explain: bool = False,
    ) -> QueryResult:
        """Answer ``Q(W, T)`` over ``num_days`` days starting at ``first_day``.

        ``explain=True`` attaches the per-stage cost report (see
        :class:`~repro.core.query.QueryExplain`) to the result.
        """
        query = AnalyticalQuery.over_days(region, first_day, num_days)
        missing = [d for d in query.days if d not in self._built_days]
        if missing:
            raise ValueError(
                f"query days not built yet: {missing[:5]}{'...' if len(missing) > 5 else ''}"
            )
        return self._processor.run(
            query,
            strategy=strategy,
            final_check=final_check,
            delta_s=delta_s,
            use_materialized=use_materialized,
            explain=explain,
        )

    # ------------------------------------------------------------------
    # Interpretation helpers (Example 1's questions)
    # ------------------------------------------------------------------
    def describe(self, cluster: AtypicalCluster) -> str:
        """One-line human summary of a cluster: where / when / worst spot."""
        sensor, sensor_sev = cluster.most_serious_sensor()
        highway = self._network[sensor].highway_id
        highway_name = self._network.highways.get(highway)
        road = highway_name.name if highway_name is not None else f"highway {highway}"
        start = cluster.start_window()
        minute = self._spec.minute_of_day(start % self._spec.windows_per_day)
        return (
            f"cluster {cluster.cluster_id}: severity {cluster.severity():.0f} min "
            f"over {len(cluster.spatial)} sensors; worst at s{sensor} on {road} "
            f"({sensor_sev:.0f} min); typically starts around "
            f"{minute // 60:02d}:{minute % 60:02d}"
        )
