"""The live forest: streaming ingest over the batch engine's model.

:class:`IngestEngine` turns an :class:`~repro.analysis.engine.AnalysisEngine`
into a continuously-updating model. Events arrive in batches of validated
``(sensor, window, severity)`` rows (see :mod:`repro.ingest.contract`);
the open day's rows are buffered, and the moment the event watermark
crosses into the next day (or on :meth:`IngestEngine.flush`) the day is
built by :meth:`~repro.analysis.engine.AnalysisEngine.add_day_records` —
the batch build's own day step — over those rows in the catalog's
sensor-major order.

The central invariant — pinned by ``tests/ingest`` — is **batch
parity**: after a day closes, the engine's forest, cube and built-day
set are byte-identical to a batch build over the same records. It holds
by construction, because both paths run the same function on the same
records. Only the day level is built; weeks and months are integrated on
demand by the forest, as in the paper's partially materialized design.

Freshness is *day-granular*: an accepted event becomes queryable when its
day closes, and :meth:`staleness_seconds` (exported as the
``ingest.staleness_seconds`` gauge) reports the age of the oldest accepted
event still waiting — bounded by the day length plus the ``delta_t`` gap
in steady state, and collapsible to zero at any time with :meth:`flush`.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.cluster import ClusterIdGenerator
from repro.core.forest import AtypicalForest
from repro.core.records import RecordBatch
from repro.obs.metrics import LATENCY_BUCKETS

__all__ = ["IngestEngine", "IngestOverload", "IngestResult"]

_log_name = "repro.ingest"


class IngestOverload(RuntimeError):
    """Admission control rejected a batch (HTTP 429 on the serve path).

    Raised before any row of the batch is applied: either the batch alone
    exceeds the configured queue capacity, or too many submitters are
    already waiting on the ingest lock.
    """


@dataclass
class IngestResult:
    """Outcome of one :meth:`IngestEngine.add_events` call."""

    accepted: int = 0
    rejected: Counter = field(default_factory=Counter)
    closed_days: List[int] = field(default_factory=list)
    open_day: int = 0
    staleness_seconds: float = 0.0

    def rejected_total(self) -> int:
        """Total rejected rows across all reasons."""
        return sum(self.rejected.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible shape (the ``POST /ingest`` response body)."""
        return {
            "accepted": self.accepted,
            "rejected": self.rejected_total(),
            "rejections": dict(sorted(self.rejected.items())),
            "closed_days": list(self.closed_days),
            "open_day": self.open_day,
            "staleness_seconds": round(self.staleness_seconds, 3),
        }


class IngestEngine:
    """Streaming ingest over one analysis engine (see module docstring).

    ``query_lock`` must be the same lock the serving layer holds around
    ``engine.query`` calls; the day build and snapshotting take it so
    queries never observe a half-built day (and because extraction mints
    cluster ids from the generator queries share). ``start_day`` anchors
    the first open day when the engine holds no built days yet (an engine
    resumed from a snapshot opens at its last built day + 1).
    """

    def __init__(
        self,
        engine,
        *,
        start_day: int = 0,
        query_lock: Optional[threading.Lock] = None,
        max_batch_rows: int = 50_000,
        max_waiters: int = 8,
        snapshot_format: str = "columnar",
        snapshot_keep: int = 3,
    ):
        self._engine = engine
        self._spec = engine.window_spec
        self._calendar = engine.calendar
        self._query_lock = query_lock if query_lock is not None else threading.Lock()
        self._max_batch_rows = max_batch_rows
        self._max_waiters = max_waiters
        self._snapshot_format = snapshot_format
        self._snapshot_keep = max(1, snapshot_keep)
        self._valid_sensors = frozenset(
            sensor.sensor_id for sensor in engine.network
        )
        self._max_window = (
            self._calendar.num_days * self._spec.windows_per_day - 1
        )

        built = engine.built_days
        self._day = max(built) + 1 if built else start_day
        self._open_window = -1
        self._day_rows: List[Tuple[int, int, float]] = []

        self._lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._waiters = 0
        self._staleness_anchor: Optional[float] = None
        self._accepted_total = 0
        self._rejected_total: Counter = Counter()
        self._days_closed = 0
        self._snapshots_written = 0
        self._last_snapshot: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The wrapped :class:`~repro.analysis.engine.AnalysisEngine`."""
        return self._engine

    @property
    def open_day(self) -> int:
        """The day currently accepting events (not yet queryable)."""
        return self._day

    @property
    def days_closed(self) -> int:
        """Days built into the forest by this engine instance."""
        return self._days_closed

    @property
    def accepted_total(self) -> int:
        """Rows accepted since construction."""
        return self._accepted_total

    @property
    def rejected_totals(self) -> Counter:
        """Per-reason rejected row counts since construction (a copy)."""
        return Counter(self._rejected_total)

    def pending_rows(self) -> int:
        """Accepted rows not yet queryable (the open day's buffer)."""
        return len(self._day_rows)

    def staleness_seconds(self) -> float:
        """Age of the oldest accepted, not-yet-queryable event (seconds).

        Zero when every accepted event is in a built day. Also refreshes
        the ``ingest.staleness_seconds`` gauge so scrapes that go through
        :meth:`stats` (``/healthz``, the dashboard) see a live value.
        """
        anchor = self._staleness_anchor
        staleness = 0.0 if anchor is None else max(0.0, time.monotonic() - anchor)
        if obs.enabled():
            obs.gauge("ingest.staleness_seconds").set(staleness)
        return staleness

    # ------------------------------------------------------------------
    def add_events(
        self, rows: Sequence[Tuple[int, int, float]], *, flush: bool = False
    ) -> IngestResult:
        """Apply one batch of validated rows; returns the batch outcome.

        Rows are processed in order; a row whose window precedes the open
        window (or whose day is already built) is rejected — the stream
        contract is a monotone watermark. ``flush=True`` closes the open
        day after the batch (operator drain; see :meth:`flush`).

        Raises :class:`IngestOverload` — before applying anything — when
        the batch exceeds ``max_batch_rows`` or too many submitters are
        already queued on the ingest lock.
        """
        if len(rows) > self._max_batch_rows:
            if obs.enabled():
                obs.counter("ingest.throttled").inc()
            raise IngestOverload(
                f"batch of {len(rows)} rows exceeds the ingest queue "
                f"capacity ({self._max_batch_rows})"
            )
        if not self._lock.acquire(blocking=False):
            with self._admission_lock:
                if self._waiters >= self._max_waiters:
                    if obs.enabled():
                        obs.counter("ingest.throttled").inc()
                    raise IngestOverload(
                        f"ingest queue is full ({self._waiters} batches waiting)"
                    )
                self._waiters += 1
            try:
                self._lock.acquire()
            finally:
                with self._admission_lock:
                    self._waiters -= 1
        try:
            return self._apply(rows, flush)
        finally:
            self._lock.release()

    def _apply(
        self, rows: Sequence[Tuple[int, int, float]], flush: bool
    ) -> IngestResult:
        started = time.perf_counter()
        result = IngestResult()
        for sensor, window, severity in rows:
            reason = self._admit(sensor, window)
            if reason:
                result.rejected[reason] += 1
                continue
            day = self._spec.day_of_window(window)
            if day > self._day:
                self._advance_to_day(day, result)
            if window > self._open_window:
                self._open_window = window
            self._day_rows.append((sensor, window, severity))
            if self._staleness_anchor is None:
                self._staleness_anchor = time.monotonic()
            result.accepted += 1
        if flush:
            result.closed_days.extend(self.flush_locked())
        result.open_day = self._day
        self._accepted_total += result.accepted
        self._rejected_total.update(result.rejected)
        result.staleness_seconds = self.staleness_seconds()
        if obs.enabled():
            obs.counter("ingest.batches").inc()
            obs.counter("ingest.events.accepted").inc(result.accepted)
            for reason, count in result.rejected.items():
                obs.counter(f"ingest.rejected.{reason}").inc(count)
            obs.counter("ingest.events.rejected").inc(result.rejected_total())
            obs.gauge("ingest.pending_rows").set(self.pending_rows())
            obs.histogram("ingest.batch_seconds", LATENCY_BUCKETS).observe(
                time.perf_counter() - started
            )
        return result

    def note_rejections(self, rejected: Counter) -> None:
        """Fold contract-level rejections into the totals and metrics.

        Wire-format violations (``parse``, ``unknown-field``, ...) are
        counted where the bytes are decoded — the HTTP handler or the
        spool tailer — not by :meth:`add_events`, which only ever sees
        valid rows; this keeps ``/healthz`` and the ``ingest.rejected.*``
        counters consistent with the per-batch responses.
        """
        if not rejected:
            return
        with self._admission_lock:
            self._rejected_total.update(rejected)
        if obs.enabled():
            for reason, count in rejected.items():
                obs.counter(f"ingest.rejected.{reason}").inc(count)
            obs.counter("ingest.events.rejected").inc(sum(rejected.values()))

    def _admit(self, sensor: int, window: int) -> str:
        """The per-row rejection reason, or ``""`` when the row may land."""
        if window > self._max_window:
            return "beyond-calendar"
        day = self._spec.day_of_window(window)
        if day < self._day:
            return "closed-day"
        if day == self._day and self._open_window != -1 and window < self._open_window:
            return "stale-window"
        if sensor not in self._valid_sensors:
            return "unknown-sensor"
        return ""

    # ------------------------------------------------------------------
    def flush(self) -> List[int]:
        """Close the open day now (even mid-day) and build it.

        The operator's drain switch: after a flush every accepted event is
        queryable and :meth:`staleness_seconds` is zero. The open day is
        built even when it received no events (it is provably eventless
        as far as the stream is concerned), matching a batch build over
        the same catalog range. Returns the closed day ids — empty when
        every calendar day is already built, so there is no day to close.
        """
        with self._lock:
            return self.flush_locked()

    def flush_locked(self) -> List[int]:
        """:meth:`flush` body for callers already holding the ingest lock."""
        if self._day >= self._calendar.num_days:
            return []
        closed_day = self._day
        self._close_day()
        self._open_next(closed_day + 1)
        return [closed_day]

    def _advance_to_day(self, new_day: int, result: IngestResult) -> None:
        """Close the open day (and any empty gap days) up to ``new_day``."""
        self._close_day()
        result.closed_days.append(self._day)
        for gap_day in range(self._day + 1, new_day):
            self._build_day(gap_day, RecordBatch.empty())
            result.closed_days.append(gap_day)
        self._open_next(new_day)

    def _open_next(self, day: int) -> None:
        self._day = day
        self._open_window = -1
        self._staleness_anchor = None

    def _close_day(self) -> None:
        """Build the open day from its buffered rows."""
        # the catalog's sensor-major record order: extraction and the
        # cube's float accumulation then see exactly what a batch build
        # over the same records sees
        self._day_rows.sort(key=lambda row: (row[0], row[1]))
        self._build_day(self._day, _rows_to_batch(self._day_rows))
        self._day_rows = []

    def _build_day(self, day: int, batch: RecordBatch) -> None:
        with self._query_lock:
            clusters = self._engine.add_day_records(day, batch)
        self._days_closed += 1
        if obs.enabled():
            obs.counter("ingest.days.closed").inc()
            obs.gauge("ingest.built_days").set(len(self._engine.built_days))
        obs.get_logger(_log_name).info(
            "day closed",
            extra={"day": day, "clusters": len(clusters), "records": len(batch)},
        )

    # ------------------------------------------------------------------
    def snapshot(self, directory) -> Path:
        """Publish an atomic, batch-identical model snapshot.

        Writes ``forest.bin`` / ``cube.bin`` / ``engine.json`` for the
        *closed* days into a fresh ``model-NNNNNN`` directory under
        ``directory`` and atomically swings the ``current`` symlink to it,
        so a concurrent ``repro query --model <directory>/current`` or
        ``repro serve`` always opens a complete, consistent model.

        The snapshot forest contains only day-level micro-clusters — any
        week/month levels the engine holds (a base model built with
        ``--materialize`` carries them, and queries integrate more on
        demand) are left out — which is what makes the files
        byte-identical to ``repro build`` over the same records. Returns
        the published version directory.
        """
        from repro.storage.forest_io import save_cube, save_forest

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._query_lock:
            forest = self._engine.forest
            days = forest.days
            clusters = [c for d in days for c in forest.day_clusters(d)]
            snap = AtypicalForest(
                self._calendar,
                self._spec,
                self._engine.config.integrator(),
                ClusterIdGenerator(),
            )
            snap.import_state(
                clusters=clusters,
                micro_by_day={
                    d: [c.cluster_id for c in forest.day_clusters(d)] for d in days
                },
                week_cache={},
                month_cache={},
            )
            built_days = sorted(self._engine.built_days)
            self._snapshots_written += 1
            # number versions from the directory contents, not this
            # instance's counter: a tailer resumed after a crash must not
            # collide with the versions its predecessor published
            existing = [
                int(p.name[len("model-"):])
                for p in directory.glob("model-*")
                if p.is_dir() and p.name[len("model-"):].isdigit()
            ]
            version = f"model-{max(existing, default=0) + 1:06d}"
            tmp_dir = directory / f".tmp-{os.getpid()}-{version}"
            if tmp_dir.exists():
                shutil.rmtree(tmp_dir)
            tmp_dir.mkdir(parents=True)
            try:
                save_forest(
                    snap, tmp_dir / "forest.bin", format=self._snapshot_format
                )
                save_cube(self._engine.cube, tmp_dir / "cube.bin")
                config = self._engine.config
                meta = {
                    "built_days": built_days,
                    "delta_s": config.delta_s,
                    "similarity_threshold": config.similarity_threshold,
                    "balance_function": config.balance_function,
                }
                import json

                (tmp_dir / "engine.json").write_text(json.dumps(meta))
                target = directory / version
                os.replace(tmp_dir, target)
            finally:
                if tmp_dir.exists():
                    shutil.rmtree(tmp_dir, ignore_errors=True)
        link = directory / "current"
        tmp_link = directory / f".current-{os.getpid()}"
        if tmp_link.is_symlink() or tmp_link.exists():
            tmp_link.unlink()
        os.symlink(version, tmp_link)
        os.replace(tmp_link, link)
        self._last_snapshot = str(target)
        self._prune_snapshots(directory)
        if obs.enabled():
            obs.counter("ingest.snapshots").inc()
        obs.get_logger(_log_name).info(
            "snapshot published",
            extra={"path": str(target), "built_days": len(built_days)},
        )
        return target

    def _prune_snapshots(self, directory: Path) -> None:
        versions = sorted(
            p for p in directory.glob("model-*") if p.is_dir()
        )
        current = (directory / "current").resolve()
        for stale in versions[: -self._snapshot_keep]:
            if stale.resolve() != current:
                shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Operational snapshot for ``/healthz`` and the dashboard."""
        return {
            "open_day": self._day,
            "open_window": self._open_window if self._open_window != -1 else None,
            "built_days": len(self._engine.built_days),
            "days_closed": self._days_closed,
            "accepted": self._accepted_total,
            "rejected": sum(self._rejected_total.values()),
            "rejections": dict(sorted(self._rejected_total.items())),
            "pending_rows": self.pending_rows(),
            "staleness_seconds": round(self.staleness_seconds(), 3),
            "snapshots": self._snapshots_written,
            "last_snapshot": self._last_snapshot,
        }


def _rows_to_batch(rows: Sequence[Tuple[int, int, float]]) -> RecordBatch:
    """Validated rows -> a :class:`RecordBatch` (empty-safe)."""
    if not rows:
        return RecordBatch.empty()
    sensors = np.fromiter((r[0] for r in rows), dtype=np.int32, count=len(rows))
    windows = np.fromiter((r[1] for r in rows), dtype=np.int32, count=len(rows))
    severities = np.fromiter(
        (r[2] for r in rows), dtype=np.float64, count=len(rows)
    )
    return RecordBatch(sensors, windows, severities)
