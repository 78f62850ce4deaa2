"""Trace generator: the PeMS-replacement workload (see DESIGN.md).

Produces monthly :class:`~repro.storage.dataset.CPSDataset` files with the
structural properties the paper's algorithms exploit:

* a few **dominant** corridors with long unfragmented rush-hour events
  (the severity monsters that stay significant even at high ``delta_s``),
* several **strong secondary** hotspots whose daily activity fragments
  into pulses below the daily significance bar (these are what beforehand
  pruning misses),
* **weak** hotspots, **minor** hotspots and random **incidents** that form
  the long tail of trivial clusters diluting precision,
* weekday/weekend activity patterns and weather modulation.

Everything is deterministic in the configuration seed; any single day can
be regenerated independently (per-day child seeds), so tests never need to
materialize a full year.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.simulate.city import CityLayout, build_highways
from repro.simulate.congestion import (
    HotspotSpec,
    IncidentProcess,
    IncidentReport,
    apply_hotspot,
    apply_incidents,
    finalize_day,
)
from repro.simulate.weather import WeatherModel
from repro.spatial.network import SensorNetwork, deploy_sensors
from repro.spatial.regions import DistrictGrid
from repro.storage.catalog import DatasetCatalog
from repro.storage.codec import ReadingChunk
from repro.storage.dataset import CPSDatasetWriter, DatasetMeta
from repro.temporal.hierarchy import Calendar, PEMS_MONTH_LENGTHS
from repro.temporal.windows import WindowSpec

__all__ = ["SimulationConfig", "TrafficSimulator"]

_log = logging.getLogger(__name__)

_AM_PEAK_MINUTE = 7 * 60 + 35
_PM_PEAK_MINUTE = 17 * 60 + 10


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of the synthetic trace, serializable for catalogs."""

    seed: int = 7
    layout: CityLayout = field(default_factory=CityLayout)
    sensor_spacing_miles: float = 0.5
    arterial_spacing_miles: float = 1.2
    window_minutes: int = 5
    month_lengths: tuple[int, ...] = PEMS_MONTH_LENGTHS
    district_cols: int = 5
    district_rows: int = 7
    # hotspot population
    minor_hotspots: int = 24
    incident_rate_per_day: float = 4.0
    # free-flow speed model
    free_flow_mph: float = 64.0
    free_flow_spread: float = 4.0

    # ------------------------------------------------------------------
    @classmethod
    def small(cls, seed: int = 7) -> "SimulationConfig":
        """A laptop-test profile: ~90 sensors, fast to generate."""
        return cls(
            seed=seed,
            layout=CityLayout(
                width_miles=8.0, height_miles=6.0, ew_corridors=2, ns_corridors=1
            ),
            minor_hotspots=4,
            incident_rate_per_day=0.5,
            district_cols=3,
            district_rows=2,
        )

    @classmethod
    def benchmark(cls, seed: int = 7) -> "SimulationConfig":
        """The default evaluation profile (~270 sensors, 12 months)."""
        return cls(seed=seed)

    # ------------------------------------------------------------------
    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_minutes)

    def calendar(self) -> Calendar:
        names = tuple(f"month {i + 1}" for i in range(len(self.month_lengths)))
        return Calendar(month_lengths=self.month_lengths, month_names=names)

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["layout"] = asdict(self.layout)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationConfig":
        payload = dict(data)
        payload["layout"] = CityLayout(**payload["layout"])  # type: ignore[arg-type]
        payload["month_lengths"] = tuple(payload["month_lengths"])  # type: ignore[arg-type]
        return cls(**payload)  # type: ignore[arg-type]


class TrafficSimulator:
    """Deterministic synthetic CPS trace for the whole experiment year."""

    def __init__(self, config: SimulationConfig = SimulationConfig()):
        self._config = config
        self._spec = config.window_spec()
        self._calendar = config.calendar()
        self._highways = build_highways(config.layout, config.seed)
        self._arterial_ids = self._classify_arterials()
        overrides = {
            hid: config.arterial_spacing_miles for hid in self._arterial_ids
        }
        self._network = deploy_sensors(
            self._highways, config.sensor_spacing_miles, overrides
        )
        self._weather = WeatherModel(self._calendar.num_days, config.seed)
        self._hotspots = self._build_hotspots()
        self._incidents = IncidentProcess(rate_per_day=config.incident_rate_per_day)
        self._highway_sensor_lists = [
            self._network.highway_sensors(h.highway_id) for h in self._highways
        ]

    # ------------------------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def network(self) -> SensorNetwork:
        return self._network

    @property
    def calendar(self) -> Calendar:
        return self._calendar

    @property
    def window_spec(self) -> WindowSpec:
        return self._spec

    @property
    def weather(self) -> WeatherModel:
        return self._weather

    @property
    def hotspots(self) -> Sequence[HotspotSpec]:
        return tuple(self._hotspots)

    def districts(self) -> DistrictGrid:
        return DistrictGrid(
            self._network, self._config.district_cols, self._config.district_rows
        )

    # ------------------------------------------------------------------
    # Hotspot population
    # ------------------------------------------------------------------
    def _classify_arterials(self) -> frozenset[int]:
        """Highway ids of the arterial (minors-only, sparse) corridors.

        Every second east-west corridor after the dominant one is an
        arterial: quiet roads whose districts stay below the red-zone bar,
        giving the guided filter something to prune.
        """
        ew = [
            h.highway_id
            for h in self._highways
            if h.name.endswith("E") or h.name.endswith("W")
        ]
        corridors = [ew[i : i + 2] for i in range(0, len(ew), 2)]
        arterials: set[int] = set()
        for index, pair in enumerate(corridors):
            if index >= 1 and index % 2 == 0:  # corridors 2, 4, ...
                arterials.update(pair)
        return frozenset(arterials)

    def _build_hotspots(self) -> List[HotspotSpec]:
        """Assign the tiered hotspot population (see DESIGN.md calibration).

        Every corridor follows the classic commute pattern of the paper's
        Example 2: the even-id direction congests in the morning, the odd-id
        direction in the evening, so opposite directions never overlap in
        time even though their sensors share physical locations. Recurring
        hotspots are placed at block midpoints (between corridor crossings)
        and their spatial reach is hard-capped, so events of different
        hotspots stay more than ``delta_d`` apart and never chain into one
        record-level event (Def. 1).

        Tiers:

        * ``dominant`` — corridor 0, both directions; continuous 5-hour
          monsters spanning the corridor, significant at every ``delta_s``.
        * ``cstrong`` — continuous ~4-hour events, stable day to day;
          significant at default ``delta_s`` and found by beforehand
          pruning.
        * ``vstrong`` — pulse-fragmented events with high day-to-day
          variance; significant at low/default ``delta_s`` but their pieces
          fall below the daily bar, so beforehand pruning misses them.
        * ``frag`` — smaller fragmented events, significant only at the
          lowest ``delta_s``; also missed by beforehand pruning.
        * ``minor`` — short blips on every highway, never significant.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence([self._config.seed, 0x50])
        )
        specs: List[HotspotSpec] = []
        next_id = 0

        ew_ids = [
            h.highway_id
            for h in self._highways
            if h.name.endswith("E") or h.name.endswith("W")
        ]
        ns_ids = [h.highway_id for h in self._highways if h.highway_id not in ew_ids]
        dominant_ids = ew_ids[:2] if len(ew_ids) >= 2 else ew_ids
        slot_highways = [
            h
            for h in ew_ids
            if h not in dominant_ids and h not in self._arterial_ids
        ]

        def peak_for(highway_id: int) -> int:
            base = _AM_PEAK_MINUTE if highway_id % 2 == 0 else _PM_PEAK_MINUTE
            return base + int(rng.integers(-8, 9))

        for highway_id in dominant_ids:
            sensors = self._network.highway_sensors(highway_id)
            n = len(sensors)
            specs.append(
                HotspotSpec(
                    hotspot_id=next_id,
                    highway_id=highway_id,
                    center_ordinal=int(n * float(rng.uniform(0.45, 0.55))),
                    peak_minute=peak_for(highway_id),
                    extent_sensors=10.0,
                    pulses=1,
                    pulse_minutes=310.0,
                    gap_minutes=30.0,
                    core_intensity=5.0,
                    weekday_prob=0.92,
                    weekend_prob=0.45,
                    day_scale_sigma=0.10,
                )
            )
            next_id += 1

        # two recurring-hotspot slots per remaining EW highway, tiers
        # assigned round-robin
        tier_cycle = ("cstrong", "vstrong", "frag")
        tier_index = 0
        for highway_id in slot_highways:
            for center in self._midblock_centers(highway_id, ns_ids, rng):
                tier = tier_cycle[tier_index % len(tier_cycle)]
                tier_index += 1
                peak = peak_for(highway_id)
                if tier == "cstrong":
                    spec = HotspotSpec(
                        hotspot_id=next_id,
                        highway_id=highway_id,
                        center_ordinal=center,
                        peak_minute=peak,
                        extent_sensors=2.2,
                        pulses=1,
                        pulse_minutes=300.0,
                        gap_minutes=30.0,
                        core_intensity=4.9,
                        weekday_prob=0.86,
                        weekend_prob=0.30,
                        day_scale_sigma=0.10,
                        reach_cap_sensors=3,
                    )
                elif tier == "vstrong":
                    spec = HotspotSpec(
                        hotspot_id=next_id,
                        highway_id=highway_id,
                        center_ordinal=center,
                        peak_minute=peak,
                        extent_sensors=2.4,
                        pulses=7,
                        pulse_minutes=38.0,
                        gap_minutes=16.0,
                        core_intensity=5.0,
                        weekday_prob=0.86,
                        weekend_prob=0.25,
                        day_scale_sigma=0.30,
                        reach_cap_sensors=3,
                    )
                else:
                    spec = HotspotSpec(
                        hotspot_id=next_id,
                        highway_id=highway_id,
                        center_ordinal=center,
                        peak_minute=peak,
                        extent_sensors=1.8,
                        pulses=4,
                        pulse_minutes=40.0,
                        gap_minutes=16.0,
                        core_intensity=4.8,
                        weekday_prob=0.85,
                        weekend_prob=0.10,
                        day_scale_sigma=0.15,
                        reach_cap_sensors=3,
                        episode_weeks_on=3,
                        episode_weeks_off=2,
                        episode_phase=tier_index,
                    )
                specs.append(spec)
                next_id += 1

        # minor hotspots: many short pulses at random spots — the junk
        # population that the red zones prune (their chains also dilute
        # the precision of the integrate-all baseline). Placement avoids
        # the recurring-tier centers so the junk mostly lands in quiet
        # districts, mirroring how trivial congestion spreads over a city.
        tier_centers = {(s.highway_id, s.center_ordinal) for s in specs}
        arterial_list = [
            h for h in self._highways if h.highway_id in self._arterial_ids
        ] or list(self._highways)
        placed = 0
        while placed < self._config.minor_hotspots:
            # 70 % of minors live on quiet arterials, the rest anywhere
            if rng.random() < 0.7:
                highway = arterial_list[int(rng.integers(0, len(arterial_list)))]
            else:
                highway = self._highways[int(rng.integers(0, len(self._highways)))]
            sensors = self._network.highway_sensors(highway.highway_id)
            n = len(sensors)
            ordinal = int(rng.integers(2, max(3, n - 2)))
            if any(
                hw == highway.highway_id and abs(ordinal - c) < 10
                for hw, c in tier_centers
            ):
                continue
            specs.append(
                HotspotSpec(
                    hotspot_id=next_id,
                    highway_id=highway.highway_id,
                    center_ordinal=ordinal,
                    peak_minute=int(rng.integers(9 * 60, 17 * 60)),
                    extent_sensors=0.9,
                    pulses=5,
                    pulse_minutes=10.0,
                    gap_minutes=20.0,
                    core_intensity=2.4,
                    weekday_prob=0.7,
                    weekend_prob=0.3,
                    day_scale_sigma=0.15,
                    start_jitter_minutes=45.0,
                    reach_cap_sensors=2,
                )
            )
            next_id += 1
            placed += 1
        return specs

    def _midblock_centers(
        self,
        highway_id: int,
        crossing_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """Well-separated hotspot centers on ``highway_id``.

        Candidates are the midpoints of the highway blocks between its
        crossings with the given perpendicular highways; each midpoint is
        then snapped (within four sensors) toward the center of its
        district, which keeps a recurring cluster's severity concentrated
        in one pre-defined region — the property the red-zone filter
        exploits (Sec. IV).
        """
        sensors = self._network.highway_sensors(highway_id)
        n = len(sensors)
        crossings: List[int] = []
        for other in crossing_ids:
            ordinal, _ = self._interchange_ordinals(highway_id, other)
            crossings.append(ordinal)
        boundaries = sorted({0, n - 1, *crossings})
        midpoints = [
            (boundaries[i] + boundaries[i + 1]) // 2
            for i in range(len(boundaries) - 1)
            if boundaries[i + 1] - boundaries[i] >= 8
        ]
        if not midpoints:
            midpoints = [n // 2]
        snapped = [
            self._snap_to_district_center(highway_id, m, crossings) for m in midpoints
        ]
        if len(snapped) == 1:
            return snapped
        return [snapped[0], snapped[-1]]

    def _snap_to_district_center(
        self, highway_id: int, ordinal: int, crossings: Sequence[int]
    ) -> int:
        """The ordinal near ``ordinal`` closest to a district center.

        Candidates that would bring a capped-support hotspot within
        ``delta_d`` of a crossing are rejected, so snapping never undoes
        the mid-block clearance.
        """
        sensors = self._network.highway_sensors(highway_id)
        districts = self.districts()
        best = ordinal
        best_score = float("inf")
        for candidate in range(max(0, ordinal - 4), min(len(sensors), ordinal + 5)):
            if any(abs(candidate - crossing) <= 7 for crossing in crossings):
                continue
            sensor_id = sensors[candidate]
            district = districts[districts.district_of(sensor_id)]
            score = self._network.location(sensor_id).distance_to(district.bbox.center)
            if score < best_score:
                best_score = score
                best = candidate
        return best

    def _interchange_ordinals(self, highway_a: int, highway_b: int) -> tuple[int, int]:
        """Ordinals of the closest sensor pair between two highways."""
        sensors_a = self._network.highway_sensors(highway_a)
        sensors_b = self._network.highway_sensors(highway_b)
        positions = np.asarray(self._network.positions)
        pos_a = positions[list(sensors_a)]
        pos_b = positions[list(sensors_b)]
        diff = pos_a[:, None, :] - pos_b[None, :, :]
        dist2 = np.einsum("abi,abi->ab", diff, diff)
        flat = int(np.argmin(dist2))
        return flat // len(sensors_b), flat % len(sensors_b)

    # ------------------------------------------------------------------
    # Day simulation
    # ------------------------------------------------------------------
    def day_rng(self, day: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self._config.seed, 0xDA, day])
        )

    def simulate_day_matrix(self, day: int) -> np.ndarray:
        """Congested minutes per ``(sensor, window-in-day)`` for one day."""
        matrix, _ = self.simulate_day_detail(day)
        return matrix

    def simulate_day_detail(self, day: int) -> tuple[np.ndarray, List[IncidentReport]]:
        """The day's congestion matrix plus its incident ground truth.

        The incident log is the ground truth behind the "accident report"
        context dimension of Sec. V-D.
        """
        rng = self.day_rng(day)
        weather = self._weather.day(day).state
        is_weekend = self._calendar.is_weekend(day)
        matrix = np.zeros(
            (len(self._network), self._spec.windows_per_day), dtype=np.float64
        )
        for spec in self._hotspots:
            apply_hotspot(
                matrix,
                self._highway_sensor_lists[spec.highway_id],
                spec,
                rng,
                is_weekend,
                weather.intensity,
                weather.activity,
                self._config.window_minutes,
                day=day,
            )
        incidents = apply_incidents(
            matrix,
            self._highway_sensor_lists,
            self._incidents,
            rng,
            weather.intensity,
            self._config.window_minutes,
        )
        finalize_day(matrix, self._config.window_minutes)
        return matrix, incidents

    def incident_log(self, day: int) -> List[IncidentReport]:
        """Ground-truth incident reports of ``day`` (regenerated from the
        day seed, so no state needs to be kept)."""
        return self.simulate_day_detail(day)[1]

    def simulate_day(self, day: int) -> ReadingChunk:
        """All raw readings of one day (normal and atypical)."""
        matrix = self.simulate_day_matrix(day)
        rng = self.day_rng(day)  # independent stream position is irrelevant
        num_sensors, wpd = matrix.shape
        sensor_ids = np.repeat(
            np.arange(num_sensors, dtype=np.int32), wpd
        )
        windows = np.tile(
            np.arange(day * wpd, (day + 1) * wpd, dtype=np.int32), num_sensors
        )
        congested = matrix.reshape(-1).astype(np.float32)
        free_flow = (
            self._config.free_flow_mph
            + rng.normal(0.0, self._config.free_flow_spread, size=num_sensors)
        )
        speeds = np.repeat(free_flow, wpd) - congested * (
            45.0 / self._config.window_minutes
        )
        speeds = speeds + rng.normal(0.0, 2.0, size=speeds.shape)
        np.clip(speeds, 3.0, 90.0, out=speeds)
        return ReadingChunk(
            sensor_ids=sensor_ids,
            windows=windows,
            speeds=speeds.astype(np.float32),
            congested=congested,
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def write_month(self, directory: Path | str, month: int) -> str:
        """Write one monthly dataset file; returns its file name."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        days = self._calendar.month_day_range(month)
        name = f"D{month + 1}"
        file_name = f"{name}.cps"
        meta = DatasetMeta(
            name=name,
            num_sensors=len(self._network),
            first_day=days.start,
            num_days=len(days),
            window_minutes=self._config.window_minutes,
        )
        with CPSDatasetWriter(directory / file_name, meta) as writer:
            for day in days:
                writer.append_day(self.simulate_day(day))
        return file_name

    def materialize_catalog(
        self,
        directory: Path | str,
        months: Optional[Sequence[int]] = None,
    ) -> DatasetCatalog:
        """Write monthly datasets plus the catalog index and sim config."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        month_list = (
            list(months) if months is not None else list(range(self._calendar.num_months))
        )
        with obs.span("simulate.materialize") as sp:
            files = []
            for month in month_list:
                files.append(self.write_month(directory, month))
                _log.info(
                    "month written",
                    extra={"month": month, "file": files[-1]},
                )
            sp.set(months=len(month_list))
        (directory / "simulation.json").write_text(
            json.dumps(self._config.to_dict(), indent=2)
        )
        return DatasetCatalog.build(directory, files)

    @classmethod
    def from_catalog_dir(cls, directory: Path | str) -> "TrafficSimulator":
        """Rebuild the simulator (network, districts...) from a catalog dir."""
        config_path = Path(directory) / "simulation.json"
        config = SimulationConfig.from_dict(json.loads(config_path.read_text()))
        return cls(config)
