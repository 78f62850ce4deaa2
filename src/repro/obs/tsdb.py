"""A lightweight local time-series store over the metrics registry.

``/metrics`` and ``--metrics-out`` expose *instantaneous* registry state;
anything that needs history — the SLO burn-rate windows of
:mod:`repro.obs.slo`, ``repro slo check`` against a segment directory, a
post-mortem of last night's latency spike — needs the registry *sampled
over time*. This module provides exactly that, mirroring the paper's
day → week → month hierarchy at telemetry scale:

* :class:`Series` — one metric's history in fixed-size ring buffers, one
  per rollup resolution (default 1 s → 10 s → 1 m). Each coarser level is
  an aggregate (count/sum/min/max/last) of the finer one, so a bounded
  amount of memory covers minutes at 1 s grain and hours at 1 m grain.
* :class:`TimeSeriesStore` — the named-series map plus counter-aware
  window queries: :meth:`~TimeSeriesStore.increase` answers "how much did
  this counter grow over the trailing W seconds?", detecting monotonic
  counter resets (a restarted server) and re-baselining instead of
  reporting garbage negative deltas.
* :class:`Sampler` — the in-process thread ``repro serve`` runs: every
  ``interval`` seconds it folds a spans-free registry snapshot into the
  store and appends one NDJSON row to the current on-disk segment.
* Segments — ``tsdb-NNNNNN.ndjson`` files in the
  :mod:`repro.obs.segmentlog` format, re-loadable with
  :func:`load_segments` so ``repro slo check`` and post-mortems can
  evaluate windows against history that survived the process.

Everything is plain stdlib + plain dicts; the store never touches the
registry's span machinery and costs one snapshot per tick.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.segmentlog import SegmentLog, read_rows

__all__ = [
    "Bucket",
    "Series",
    "TimeSeriesStore",
    "Sampler",
    "sample_point",
    "flatten_snapshot",
    "load_segments",
    "DEFAULT_RESOLUTIONS",
    "DEFAULT_CAPACITY",
    "SEGMENT_PREFIX",
]

#: Rollup grains, seconds, finest first: 1 s for the burn-rate short
#: windows, 10 s for dashboards, 60 s for the multi-hour slow windows.
DEFAULT_RESOLUTIONS: Tuple[float, ...] = (1.0, 10.0, 60.0)

#: Ring capacity per resolution — 720 points cover 12 minutes at 1 s,
#: 2 hours at 10 s and 12 hours at 1 m, within a few hundred KB total.
DEFAULT_CAPACITY: int = 720

#: On-disk segment file name prefix (``tsdb-000001.ndjson`` ...).
SEGMENT_PREFIX = "tsdb-"


@dataclass
class Bucket:
    """One rollup cell: aggregates of the raw samples that landed in it."""

    start: float  #: bucket start time (aligned to the resolution)
    count: int
    sum: float
    min: float
    max: float
    last: float  #: most recent raw value — the one counter math wants

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON rendering (``repro serve /slo`` etc.)."""
        return {
            "start": self.start,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "last": self.last,
        }


class _Ring:
    """Fixed-capacity ring of :class:`Bucket`, oldest evicted first."""

    __slots__ = ("resolution", "capacity", "_buckets")

    def __init__(self, resolution: float, capacity: int):
        self.resolution = resolution
        self.capacity = capacity
        self._buckets: List[Bucket] = []

    def record(self, ts: float, value: float) -> None:
        start = (ts // self.resolution) * self.resolution
        if self._buckets and self._buckets[-1].start == start:
            b = self._buckets[-1]
            b.count += 1
            b.sum += value
            b.min = min(b.min, value)
            b.max = max(b.max, value)
            b.last = value
            return
        self._buckets.append(Bucket(start, 1, value, value, value, value))
        if len(self._buckets) > self.capacity:
            del self._buckets[0]

    def buckets(self, since: Optional[float] = None) -> List[Bucket]:
        if since is None:
            return list(self._buckets)
        return [b for b in self._buckets if b.start >= since]

    def __len__(self) -> int:
        return len(self._buckets)


class Series:
    """One metric's multi-resolution history.

    ``kind`` is ``"counter"`` (cumulative, reset-aware window math) or
    ``"gauge"`` (point-in-time). Raw samples fold into every resolution's
    current bucket on arrival, so there is no deferred compaction step —
    a query at any grain reads finished aggregates.
    """

    __slots__ = ("name", "kind", "_rings", "_lock")

    def __init__(
        self,
        name: str,
        kind: str = "gauge",
        resolutions: Sequence[float] = DEFAULT_RESOLUTIONS,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if kind not in ("counter", "gauge"):
            raise ValueError(f"series {name!r}: kind must be counter or gauge")
        self.name = name
        self.kind = kind
        self._rings = tuple(_Ring(r, capacity) for r in sorted(resolutions))
        self._lock = threading.Lock()

    @property
    def resolutions(self) -> Tuple[float, ...]:
        """The rollup grains this series maintains, finest first."""
        return tuple(r.resolution for r in self._rings)

    def record(self, ts: float, value: float) -> None:
        """Fold one raw sample into every rollup level."""
        with self._lock:
            for ring in self._rings:
                ring.record(ts, float(value))

    def _ring(self, resolution: Optional[float]) -> _Ring:
        if resolution is None:
            return self._rings[0]
        for ring in self._rings:
            if ring.resolution == resolution:
                return ring
        raise ValueError(
            f"series {self.name!r} has no {resolution}s rollup "
            f"(available: {self.resolutions})"
        )

    def buckets(
        self, resolution: Optional[float] = None, since: Optional[float] = None
    ) -> List[Bucket]:
        """Finished rollup buckets at ``resolution`` (default: finest)."""
        with self._lock:
            return self._ring(resolution).buckets(since)

    def latest(self) -> Optional[Tuple[float, float]]:
        """The most recent raw ``(timestamp, value)``, or ``None``."""
        with self._lock:
            ring = self._rings[0]
            if not len(ring):
                return None
            bucket = ring.buckets()[-1]
            return bucket.start, bucket.last

    def _pick_ring(self, window_seconds: float) -> _Ring:
        """Finest rollup whose retained span covers the asked-for window.

        The 1 s ring only holds ~12 minutes; a 6 h burn-rate window has
        to read the 1 m rollup instead. Falls back to the coarsest ring
        when even that cannot span the window.
        """
        for ring in self._rings:
            if ring.resolution * ring.capacity >= window_seconds + ring.resolution:
                return ring
        return self._rings[-1]

    def increase(self, window_seconds: float, now: Optional[float] = None) -> float:
        """Counter growth over the trailing window, reset-corrected.

        Walks the covering rollup's ``last`` values inside the window and
        sums consecutive deltas; a negative delta means the underlying
        process restarted and its counter came back near zero, so the
        post-reset value itself is the best estimate of the growth since
        (the standard Prometheus ``increase()`` correction). Gauges get
        ``last - first`` with no correction.
        """
        now = time.time() if now is None else now
        with self._lock:
            ring = self._pick_ring(window_seconds)
            buckets = ring.buckets(since=now - window_seconds)
            # the sample just before the window is the baseline; without
            # it the first in-window bucket's own growth would be lost
            older = [
                b for b in ring.buckets() if b.start < now - window_seconds
            ]
        if not buckets:
            return 0.0
        values = [b.last for b in buckets]
        if self.kind != "counter":
            baseline = older[-1].last if older else values[0]
            return values[-1] - baseline
        # counters: a series younger than the window accrued everything it
        # has ever seen inside the window, so the baseline is zero — using
        # the first bucket's own last value would drop its intra-bucket
        # growth (≈ the whole history right after startup)
        baseline = older[-1].last if older else 0.0
        total = 0.0
        previous = baseline
        for value in values:
            delta = value - previous
            total += value if delta < 0 else delta
            previous = value
        return total

    def __len__(self) -> int:
        return len(self._rings[0])


def flatten_snapshot(snapshot: Mapping[str, object]) -> Dict[str, Tuple[str, float]]:
    """Flatten a registry snapshot into ``{series_name: (kind, value)}``.

    Counters keep their dotted name; histograms expand into ``:count`` /
    ``:sum`` plus one cumulative ``:le:<bound>`` series per bucket bound
    (what the latency SLOs consume); gauges pass through. Windows and
    spans are skipped — windows are already rates, spans are not metrics.
    """
    flat: Dict[str, Tuple[str, float]] = {}
    for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
        flat[str(name)] = ("counter", float(value))
    for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
        flat[str(name)] = ("gauge", float(value))
    for name, hist in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
        flat[f"{name}:count"] = ("counter", float(hist["count"]))
        flat[f"{name}:sum"] = ("counter", float(hist["sum"]))
        running = 0.0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            running += count
            flat[f"{name}:le:{_fmt_bound(float(bound))}"] = ("counter", running)
    return flat


def _fmt_bound(bound: float) -> str:
    """Stable text form of a bucket bound (``0.5``, ``10``)."""
    return str(int(bound)) if bound == int(bound) else repr(bound)


def sample_point(
    registry: Optional[MetricsRegistry] = None, now: Optional[float] = None
) -> Dict[str, object]:
    """One NDJSON-ready sample row of the registry's scalar state."""
    reg = registry if registry is not None else obs.registry()
    flat = flatten_snapshot(reg.snapshot(include_spans=False))
    return {
        "t": time.time() if now is None else now,
        "series": {name: value for name, (_, value) in flat.items()},
        "kinds": {name: kind for name, (kind, _) in flat.items()},
    }


class TimeSeriesStore:
    """Named series plus optional append-only NDJSON segment persistence.

    In-memory it is a dict of :class:`Series`; with ``segment_dir`` set,
    ``log`` is a :class:`~repro.obs.segmentlog.SegmentLog` and every
    ingested sample row is also appended to it (``None`` otherwise). The
    on-disk rows are exactly what :func:`sample_point` produces, so
    :func:`load_segments` can rebuild an equivalent store after the
    process is gone.
    """

    def __init__(
        self,
        resolutions: Sequence[float] = DEFAULT_RESOLUTIONS,
        capacity: int = DEFAULT_CAPACITY,
        segment_dir: Optional[Path] = None,
    ):
        self._resolutions = tuple(sorted(float(r) for r in resolutions))
        self._capacity = int(capacity)
        self._series: Dict[str, Series] = {}
        self._lock = threading.Lock()
        self._samples = 0
        self.log = (
            SegmentLog(segment_dir, SEGMENT_PREFIX) if segment_dir is not None else None
        )

    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        """Sample rows ingested since creation."""
        return self._samples

    @property
    def rotations(self) -> int:
        """Completed on-disk segment rotations since creation."""
        return self.log.rotations if self.log is not None else 0

    def series_names(self) -> List[str]:
        """Sorted names of every series the store has seen."""
        with self._lock:
            return sorted(self._series)

    def series(self, name: str) -> Optional[Series]:
        """The series registered under ``name``, or ``None``."""
        with self._lock:
            return self._series.get(name)

    def _get_or_create(self, name: str, kind: str) -> Series:
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = Series(
                    name, kind, self._resolutions, self._capacity
                )
            return series

    # ------------------------------------------------------------------
    def observe(self, name: str, kind: str, ts: float, value: float) -> None:
        """Record one raw sample for ``name`` (creating the series)."""
        self._get_or_create(name, kind).record(ts, value)

    def ingest(self, point: Mapping[str, object], persist: bool = True) -> None:
        """Fold one :func:`sample_point` row into the store (and disk)."""
        ts = float(point["t"])  # type: ignore[arg-type]
        kinds: Mapping[str, str] = point.get("kinds", {})  # type: ignore[assignment]
        for name, value in point["series"].items():  # type: ignore[union-attr]
            self.observe(name, kinds.get(name, "gauge"), ts, float(value))
        self._samples += 1
        if persist and self.log is not None:
            self.log.append(point)

    def sample_registry(
        self,
        registry: Optional[MetricsRegistry] = None,
        now: Optional[float] = None,
    ) -> Dict[str, object]:
        """Sample the registry once into the store; returns the row."""
        point = sample_point(registry, now)
        self.ingest(point)
        return point

    # ------------------------------------------------------------------
    def increase(
        self, name: str, window_seconds: float, now: Optional[float] = None
    ) -> float:
        """Counter growth of ``name`` over the trailing window (0 if unknown)."""
        series = self.series(name)
        if series is None:
            return 0.0
        return series.increase(window_seconds, now)

    def latest(self, name: str) -> Optional[float]:
        """Most recent raw value of ``name``, or ``None``."""
        series = self.series(name)
        if series is None:
            return None
        point = series.latest()
        return None if point is None else point[1]

    def query(
        self,
        name: str,
        resolution: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[Dict[str, float]]:
        """Rollup buckets of ``name`` as plain dicts (empty when unknown)."""
        series = self.series(name)
        if series is None:
            return []
        return [b.to_dict() for b in series.buckets(resolution, since)]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _replayable(point: Mapping[str, object]) -> bool:
    """True when a decoded row has the shape :meth:`TimeSeriesStore.ingest` folds."""
    series, kinds = point.get("series"), point.get("kinds", {})
    return (
        _is_number(point.get("t"))
        and isinstance(series, dict)
        and all(_is_number(value) for value in series.values())
        and isinstance(kinds, dict)
        and all(kinds.get(name, "gauge") in ("counter", "gauge") for name in series)
    )


def load_segments(directory: Path | str) -> TimeSeriesStore:
    """Rebuild an in-memory store from a segment directory.

    Rows are replayed oldest segment first through
    :func:`repro.obs.segmentlog.read_rows`, which skips torn lines; rows
    that parse but do not have the sample shape (a non-numeric ``t`` or
    value, a non-mapping ``series``) are skipped too — a post-mortem
    wants the 10 000 good rows, not an exception about one bad one.
    Raises ``FileNotFoundError`` when the directory does not exist and
    ``ValueError`` when it holds no segments.
    """
    store = TimeSeriesStore()
    for point in read_rows(directory, SEGMENT_PREFIX, "tsdb"):
        if _replayable(point):
            store.ingest(point, persist=False)
    return store


class Sampler:
    """The in-process sampling thread ``repro serve`` runs.

    Every ``interval`` seconds it snapshots the active registry (spans
    excluded — a busy daemon holds thousands) into ``store``. The thread
    is a daemon so it can never block interpreter exit, but
    :meth:`stop` is the graceful path: it wakes the loop, takes one
    final sample (so the shutdown edge is on disk) and joins.

    The sampler reports on itself through the registry it samples:
    ``tsdb.samples``, ``tsdb.segment_rotations`` and the ``tsdb.series``
    gauge — visible on ``/metrics`` like everything else.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        interval: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        self._store = store
        self._interval = float(interval)
        self._registry = registry
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def store(self) -> TimeSeriesStore:
        """The store this sampler writes into."""
        return self._store

    @property
    def interval(self) -> float:
        """Seconds between samples."""
        return self._interval

    def sample_once(self, now: Optional[float] = None) -> None:
        """Take one sample immediately (the loop body; callable in tests)."""
        self._store.sample_registry(self._registry, now)
        if obs.enabled():
            obs.counter("tsdb.samples").inc()
            obs.gauge("tsdb.series").set(len(self._store.series_names()))
            rotations = self._store.rotations
            recorded = obs.registry().counter("tsdb.segment_rotations")
            if rotations > recorded.value:
                recorded.inc(rotations - recorded.value)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 — sampling must not kill serve
                obs.get_logger("repro.obs.tsdb").exception("sample failed")

    def start(self) -> None:
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-tsdb-sampler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 5.0) -> bool:
        """Graceful stop: final sample, fsync, join; True when stopped.

        The final :meth:`sample_once` flushes the in-progress partial
        window to the store (and its segment), and the store's
        :meth:`~repro.obs.segmentlog.SegmentLog.sync` then fsyncs the open
        segment — so a SIGTERM never loses the last ``interval`` of
        telemetry.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
            self._thread = None
        try:
            self.sample_once()
            if self._store.log is not None:
                self._store.log.sync()
        except Exception:  # noqa: BLE001 — flush is best-effort
            pass
        return True
