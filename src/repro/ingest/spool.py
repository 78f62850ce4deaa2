"""Spool-directory tailing: durable file-based ingest with resume.

The ``repro ingest`` command watches a *spool directory* for NDJSON event
files (the :mod:`repro.ingest.contract` line format). The protocol is the
classic maildir-style rename-into-place:

* producers write to a temporary name (dotfile, or any name not ending in
  ``.ndjson``) **in the same filesystem**, then ``rename(2)`` the file to
  ``<name>.ndjson`` — the tailer never observes a half-written file;
* file names must sort in stream order (zero-padded sequence numbers or
  UTC timestamps); the tailer applies files in lexicographic order and
  the ingest watermark rejects anything that travels back in time;
* a consumed file is never modified or deleted by the tailer.

Restart safety is the snapshot/checkpoint pair. A *checkpoint* (atomic
write-then-rename JSON) lists exactly the spool files whose every event is
reflected in the last published snapshot; it is only ever written at
snapshot time. On restart the operator reopens the snapshot (``current``
symlink) and the tailer replays every non-checkpointed file: events whose
day the snapshot already contains are rejected as ``closed-day`` (the
double-count guard), while open-day events — the ones that were lost with
the process — are re-applied. A torn or missing checkpoint is therefore
tolerated: the worst case is a full replay, which the built-day rejection
makes idempotent.

A file becomes checkpointable only when the days it touches have all been
installed (``max day in file < open day``); a file straddling the open day
stays pending and will be replayed after a crash.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

from repro import obs
from repro.ingest.contract import parse_ndjson, render_ndjson
from repro.ingest.engine import IngestEngine, IngestResult

__all__ = [
    "SpoolTailer",
    "load_checkpoint",
    "write_checkpoint",
    "write_spool_file",
    "SPOOL_SUFFIX",
]

#: Suffix a spool file must carry to be picked up by the tailer.
SPOOL_SUFFIX = ".ndjson"

_log_name = "repro.ingest.spool"


def load_checkpoint(path) -> Set[str]:
    """The spool file names covered by the last checkpoint.

    Returns the empty set when the checkpoint is missing, torn, or
    structurally invalid — resume then degrades to a full replay, which
    the ingest engine's ``closed-day`` rejection makes safe.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        if path.exists():
            obs.get_logger(_log_name).warning(
                "checkpoint unreadable; replaying the whole spool",
                extra={"path": str(path)},
            )
        return set()
    processed = doc.get("processed") if isinstance(doc, dict) else None
    if not isinstance(processed, list):
        return set()
    return {str(name) for name in processed}


def write_checkpoint(path, processed: Iterable[str], snapshot: Optional[str]) -> None:
    """Atomically persist the checkpoint (write to a sibling, then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": 1,
        "processed": sorted(processed),
        "snapshot": snapshot,
        "written_unix": time.time(),
    }
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(json.dumps(doc, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_spool_file(spool_dir, name: str, rows) -> Path:
    """Producer-side helper: write rows as NDJSON with rename-into-place.

    ``name`` must end in ``.ndjson`` and sort after every file already
    spooled (the producer owns the naming discipline). Used by the load
    generator's event mode and the tests; real producers only need to
    follow the same two steps — write a temp name, then rename.
    """
    spool_dir = Path(spool_dir)
    spool_dir.mkdir(parents=True, exist_ok=True)
    if not name.endswith(SPOOL_SUFFIX):
        raise ValueError(f"spool file name must end in {SPOOL_SUFFIX}: {name!r}")
    target = spool_dir / name
    tmp = spool_dir / f".{name}.tmp{os.getpid()}"
    try:
        tmp.write_bytes(render_ndjson(rows))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


class SpoolTailer:
    """Applies spool files to an :class:`IngestEngine`, with checkpoints.

    ``snapshot_every_days`` throttles snapshot/checkpoint publication: one
    is written whenever at least that many days closed since the last
    publication (and always once at :meth:`run` exit). With no
    ``snapshot_dir`` the tailer still ingests, but nothing is durable.
    """

    def __init__(
        self,
        spool_dir,
        ingest: IngestEngine,
        *,
        checkpoint_path=None,
        snapshot_dir=None,
        snapshot_every_days: int = 1,
        poll_seconds: float = 0.5,
    ):
        self._spool_dir = Path(spool_dir)
        self._ingest = ingest
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self._snapshot_every = max(1, snapshot_every_days)
        self._poll_seconds = poll_seconds
        self._done: Set[str] = (
            load_checkpoint(self._checkpoint_path)
            if self._checkpoint_path is not None
            else set()
        )
        #: files applied this run but not yet checkpointable: name -> max day
        self._applied: Dict[str, int] = {}
        self._snapshot_mark = ingest.days_closed
        self._files_processed = 0
        self._rejected: Counter = Counter()

    # ------------------------------------------------------------------
    @property
    def rejected_totals(self) -> Counter:
        """Per-reason rejection counts accumulated by this tailer (a copy)."""
        return Counter(self._rejected)

    # ------------------------------------------------------------------
    def scan_once(self) -> int:
        """Apply every new spool file once, in name order; returns count."""
        names = sorted(
            p.name
            for p in self._spool_dir.glob(f"*{SPOOL_SUFFIX}")
            if p.is_file()
        )
        processed = 0
        for name in names:
            if name in self._done or name in self._applied:
                continue
            self.process_file(name)
            processed += 1
            self._maybe_snapshot()
        return processed

    def process_file(self, name: str) -> IngestResult:
        """Parse and apply one spool file, recording its day coverage."""
        data = (self._spool_dir / name).read_bytes()
        rows, rejected = parse_ndjson(data)
        result = self._ingest.add_events(rows)
        result.rejected.update(rejected)
        self._ingest.note_rejections(rejected)
        spec = self._ingest.engine.window_spec
        max_day = max((spec.day_of_window(w) for _, w, _ in rows), default=-1)
        self._applied[name] = max_day
        self._files_processed += 1
        self._rejected.update(result.rejected)
        if obs.enabled():
            obs.counter("ingest.spool.files").inc()
        obs.get_logger(_log_name).info(
            "spool file applied",
            extra={
                "file": name,
                "accepted": result.accepted,
                "rejected": result.rejected_total(),
                "open_day": result.open_day,
            },
        )
        return result

    def _maybe_snapshot(self) -> None:
        if self._snapshot_dir is None:
            return
        if self._ingest.days_closed - self._snapshot_mark >= self._snapshot_every:
            self.snapshot_now()

    def snapshot_now(self) -> Optional[Path]:
        """Publish a snapshot and the matching checkpoint immediately.

        The checkpoint admits only files whose whole day coverage is in
        the snapshot (``max day < open day``); files still feeding the
        open day remain pending and replay after a crash.
        """
        if self._snapshot_dir is None:
            return None
        target = self._ingest.snapshot(self._snapshot_dir)
        self._snapshot_mark = self._ingest.days_closed
        open_day = self._ingest.open_day
        for name, max_day in list(self._applied.items()):
            if max_day < open_day:
                self._done.add(name)
                del self._applied[name]
        if self._checkpoint_path is not None:
            write_checkpoint(self._checkpoint_path, self._done, str(target))
        return target

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        once: bool = False,
        flush_at_exit: bool = False,
        stop_check=None,
        max_seconds: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Tail the spool until stopped; returns ``(files, days_closed)``.

        ``once`` drains the files currently present and returns instead of
        polling. ``stop_check`` (a zero-argument callable) is consulted
        between scans — the CLI wires SIGTERM/SIGINT to it for a graceful
        drain. ``flush_at_exit`` closes the open day before the final
        snapshot so every spooled event is queryable when the command
        returns. A snapshot/checkpoint pair is always published on exit
        when a snapshot directory is configured.
        """
        started = time.monotonic()
        days_before = self._ingest.days_closed
        try:
            while True:
                processed = self.scan_once()
                if once and processed == 0:
                    break
                if stop_check is not None and stop_check():
                    break
                if (
                    max_seconds is not None
                    and time.monotonic() - started >= max_seconds
                ):
                    break
                if processed == 0:
                    time.sleep(self._poll_seconds)
        finally:
            if flush_at_exit:
                self._ingest.flush()
            self.snapshot_now()
        return self._files_processed, self._ingest.days_closed - days_before
