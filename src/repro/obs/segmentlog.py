"""Append-only NDJSON segment logs: the one on-disk format of ``repro.obs``.

The tsdb sampler (:mod:`repro.obs.tsdb`) and the trace store
(:mod:`repro.obs.tracestore`) persist one JSON object per line into a
directory of numbered segment files. This module is the only code that
knows that format:

* a segment is a file named ``<prefix>NNNNNN.ndjson`` — the prefix
  followed by exactly six decimal digits. Any other file in the
  directory, prefixed or not, is not a segment: resume, pruning, replay
  and the ``/healthz`` count all leave it alone;
* a row is ``json.dumps(row, sort_keys=True)`` plus a newline;
* a new segment starts before a row would push the current one past
  :data:`MAX_SEGMENT_BYTES` (a row larger than that still lands whole,
  alone in a fresh segment);
* only the newest :data:`MAX_SEGMENTS` segments are kept;
* a reopened log resumes appending to its newest segment;
* :meth:`SegmentLog.sync` fsyncs the open segment on graceful shutdown;
* :func:`read_rows` skips blank lines, torn lines (a crash mid-append)
  and rows that are not JSON objects.

Each directory therefore holds at most ``MAX_SEGMENTS`` segments of
about ``MAX_SEGMENT_BYTES`` each — a fixed disk budget of ~8 MiB.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping

__all__ = [
    "MAX_SEGMENT_BYTES",
    "MAX_SEGMENTS",
    "SegmentLog",
    "read_rows",
]

#: A new segment starts before a row would push the current one past this.
MAX_SEGMENT_BYTES = 1 << 20

#: Number of newest segments kept per directory; older ones are deleted.
MAX_SEGMENTS = 8


def _segment_paths(directory: Path, prefix: str) -> List[Path]:
    pattern = re.compile(re.escape(prefix) + r"\d{6}\.ndjson")
    return sorted(
        path
        for path in directory.glob(f"{prefix}*.ndjson")
        if pattern.fullmatch(path.name)
    )


class SegmentLog:
    """Rotating, bounded, append-only NDJSON segments under one directory.

    Creating a log creates ``directory`` and resumes in its newest
    segment at that segment's current size. :meth:`append` is
    thread-safe: the log's own lock orders rows and rotations, so
    concurrent writers never interleave within a line.
    """

    def __init__(self, directory: Path | str, prefix: str):
        self._directory = Path(directory)
        self._prefix = prefix
        self._lock = threading.Lock()
        self._rotations = 0
        self._index = 0
        self._bytes = 0
        self._directory.mkdir(parents=True, exist_ok=True)
        existing = self.paths()
        if existing:
            newest = existing[-1]
            self._index = int(newest.name[len(prefix):-len(".ndjson")])
            self._bytes = newest.stat().st_size

    @property
    def rotations(self) -> int:
        """Completed segment rotations since this log was opened."""
        return self._rotations

    def _path(self) -> Path:
        return self._directory / f"{self._prefix}{self._index:06d}.ndjson"

    def paths(self) -> List[Path]:
        """The segments on disk, oldest first."""
        return _segment_paths(self._directory, self._prefix)

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row, rotating and pruning first when it would not fit."""
        data = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._bytes and self._bytes + len(data) > MAX_SEGMENT_BYTES:
                self._index += 1
                self._bytes = 0
                self._rotations += 1
                # the segment about to be created is the MAX_SEGMENTS-th
                paths = self.paths()
                for stale in paths[: max(0, len(paths) - (MAX_SEGMENTS - 1))]:
                    stale.unlink(missing_ok=True)
            with self._path().open("ab") as handle:
                handle.write(data)
            self._bytes += len(data)

    def sync(self) -> None:
        """fsync the open segment so the tail survives power loss.

        Appends go through buffered writes that the OS flushes at its
        leisure; graceful shutdown calls this after the final row. A
        no-op before the first append.
        """
        with self._lock:
            try:
                fd = os.open(self._path(), os.O_RDONLY)
            except FileNotFoundError:
                return
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def health(self) -> Dict[str, object]:
        """``segments`` on disk and seconds since the newest was written."""
        paths = self.paths()
        age = None
        if paths:
            try:
                age = max(0.0, round(time.time() - paths[-1].stat().st_mtime, 3))
            except OSError:  # pruned between listing and stat
                pass
        return {"segments": len(paths), "last_flush_age_seconds": age}


def read_rows(
    directory: Path | str, prefix: str, what: str
) -> Iterator[Dict[str, Any]]:
    """Every JSON-object row of a segment directory, oldest first.

    Blank lines, torn lines and non-object rows are skipped. Raises
    ``FileNotFoundError`` when ``directory`` does not exist and
    ``ValueError`` when it holds no segments; ``what`` names the
    directory's kind in those messages.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such {what} directory: {directory}")
    segments = _segment_paths(directory, prefix)
    if not segments:
        raise ValueError(f"{directory} contains no {prefix}NNNNNN.ndjson segments")
    return _rows(segments)


def _rows(segments: List[Path]) -> Iterator[Dict[str, Any]]:
    for segment in segments:
        try:
            lines = segment.read_bytes().splitlines()
        except FileNotFoundError:  # pruned by a live writer mid-replay
            continue
        for line in lines:
            try:
                row = json.loads(line)
            except ValueError:  # blank, or torn by a crash mid-append
                continue
            if isinstance(row, dict):
                yield row
