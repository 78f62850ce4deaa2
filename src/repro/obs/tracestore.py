"""Tail-sampled request traces: persistent store, sampler, and analysis.

The query service captures every request's span tree but only *keeps*
the ones that matter — errored requests, requests slower than a latency
threshold, and a deterministic 1-in-N head sample. The kept traces go
into a :class:`TraceStore`: an in-memory ring of recent traces indexed
by request id and queryable by duration and status, plus optional
``trace-NNNNNN.ndjson`` segments in the :mod:`repro.obs.segmentlog`
format. This is the drill-down layer under the SLO engine: a PAGE alert
carries exemplar trace ids, and ``repro trace show <id>`` resolves them
here into a critical-path/self-time breakdown.

Analysis helpers operate on the snapshot span-dict shape produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (``id`` / ``parent``
/ ``name`` / ``depth`` / ``start`` / ``seconds`` / ``attrs``):

- :func:`self_seconds` — per-span self time (duration minus children,
  clamped so clock-skewed children never produce negative self time),
- :func:`critical_path` — the heaviest root-to-leaf chain,
- :func:`merge_profile` / :func:`format_profile` — flamegraph-style
  cumulative self-time table merged across stored traces,
- :func:`trace_to_chrome` — Chrome ``trace_event`` export of one trace.
"""

from __future__ import annotations

import collections
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.segmentlog import SegmentLog, read_rows
from repro.obs.tracing import to_chrome_trace

__all__ = [
    "TRACE_SEGMENT_PREFIX",
    "DEFAULT_RING_SIZE",
    "TailSampler",
    "TraceRecord",
    "TraceStore",
    "load_trace_segments",
    "self_seconds",
    "critical_path",
    "format_trace",
    "merge_profile",
    "format_profile",
    "trace_to_chrome",
]

#: Filename prefix for persisted trace segments (``trace-000000.ndjson``).
TRACE_SEGMENT_PREFIX = "trace-"

#: Default capacity of the in-memory ring of recent traces.
DEFAULT_RING_SIZE = 512


# ----------------------------------------------------------------------
# Tail sampler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TailSampler:
    """Decide, after a request finished, whether its trace is kept.

    A trace is kept when any of these hold:

    - ``error``: the response status is >= 400,
    - ``slow``: the request took at least ``latency_threshold`` seconds
      (a threshold of ``0.0`` keeps everything; negative disables),
    - ``head``: a deterministic 1-in-``head_rate`` sample keyed on
      ``crc32(f"{seed}:{request_id}")`` — the same (seed, request id)
      pair always makes the same decision, so replays and tests are
      reproducible (``head_rate`` of 0 disables head sampling).
    """

    latency_threshold: float = 0.5
    head_rate: int = 10
    seed: int = 0

    def decide(
        self, request_id: str, status: int, seconds: float
    ) -> Tuple[str, ...]:
        """Return the keep-reasons for one finished request (empty = drop)."""
        reasons: List[str] = []
        if status >= 400:
            reasons.append("error")
        if self.latency_threshold >= 0.0 and seconds >= self.latency_threshold:
            reasons.append("slow")
        if self.head_rate > 0:
            digest = zlib.crc32(f"{self.seed}:{request_id}".encode("utf-8"))
            if digest % self.head_rate == 0:
                reasons.append("head")
        return tuple(reasons)


# ----------------------------------------------------------------------
# Trace records
# ----------------------------------------------------------------------
@dataclass
class TraceRecord:
    """One kept request trace: summary fields plus the full span tree."""

    request_id: str
    endpoint: str
    status: int
    seconds: float
    start: float
    reasons: Tuple[str, ...] = ()
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        """Span-free summary dict (what ``GET /traces`` returns per row)."""
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "status": self.status,
            "seconds": self.seconds,
            "start": self.start,
            "reasons": list(self.reasons),
            "spans": len(self.spans),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serialisable form, including the span tree."""
        doc = self.summary()
        doc["spans"] = [dict(span) for span in self.spans]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TraceRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Raises ``ValueError`` when required fields are missing or of the
        wrong shape (the segment loader skips such rows).
        """
        try:
            spans = doc.get("spans") or []
            if not isinstance(spans, list):
                raise TypeError("spans must be a list")
            return cls(
                request_id=str(doc["request_id"]),
                endpoint=str(doc.get("endpoint", "other")),
                status=int(doc["status"]),
                seconds=float(doc["seconds"]),
                start=float(doc.get("start", 0.0)),
                reasons=tuple(str(r) for r in doc.get("reasons", ())),
                spans=[dict(span) for span in spans],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace record: {exc}") from exc


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TraceStore:
    """Bounded in-memory ring of recent traces with optional persistence.

    When ``segment_dir`` is set, ``log`` is a
    :class:`~repro.obs.segmentlog.SegmentLog` and every added trace is
    appended to it as one NDJSON line (``None`` otherwise). Appends happen
    under the ring lock, so disk order equals ring order and replay's
    newest-wins rule matches the live ring. The ring keeps the last
    ``ring_size`` traces (newest wins on duplicate request ids) for
    ``GET /traces`` and SLO exemplar lookup. All
    methods are thread-safe — requests finish on server worker threads.
    """

    def __init__(
        self,
        segment_dir: Optional[Path] = None,
        ring_size: Optional[int] = DEFAULT_RING_SIZE,
    ) -> None:
        self._lock = threading.Lock()
        self._ring: Deque[TraceRecord] = collections.deque(maxlen=ring_size)
        self._by_id: Dict[str, TraceRecord] = {}
        self._added = 0
        self.log = (
            SegmentLog(segment_dir, TRACE_SEGMENT_PREFIX)
            if segment_dir is not None
            else None
        )

    @property
    def added(self) -> int:
        """Total traces ever added (the ring may have evicted older ones)."""
        with self._lock:
            return self._added

    def __len__(self) -> int:
        """Number of traces currently held in the in-memory ring."""
        with self._lock:
            return len(self._ring)

    def add(self, record: TraceRecord, persist: bool = True) -> None:
        """Add one kept trace to the ring (and, if configured, to disk)."""
        with self._lock:
            self._added += 1
            ring = self._ring
            if ring.maxlen is not None and len(ring) == ring.maxlen:
                evicted = ring[0]
                if self._by_id.get(evicted.request_id) is evicted:
                    del self._by_id[evicted.request_id]
            ring.append(record)
            self._by_id[record.request_id] = record
            if persist and self.log is not None:
                self.log.append(record.to_dict())

    def get(self, request_id: str) -> Optional[TraceRecord]:
        """Latest trace for ``request_id``, or ``None`` when unknown."""
        with self._lock:
            return self._by_id.get(request_id)

    def recent(self, limit: Optional[int] = None) -> List[TraceRecord]:
        """Traces newest-first, optionally capped at ``limit``."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        if limit is not None:
            records = records[: max(0, int(limit))]
        return records

    def slowest(self, limit: int = 10) -> List[TraceRecord]:
        """Traces ordered by duration descending (ties: newest first)."""
        with self._lock:
            indexed = list(enumerate(self._ring))
        indexed.sort(key=lambda pair: (-pair[1].seconds, -pair[0]))
        return [record for _, record in indexed[: max(0, int(limit))]]

    def errored(self, limit: Optional[int] = None) -> List[TraceRecord]:
        """Traces with status >= 400, newest-first."""
        records = [r for r in self.recent() if r.status >= 400]
        if limit is not None:
            records = records[: max(0, int(limit))]
        return records

    def sync(self) -> None:
        """fsync the open segment so kept traces survive process death."""
        if self.log is not None:
            self.log.sync()


def load_trace_segments(directory: Path) -> TraceStore:
    """Replay persisted ``trace-*.ndjson`` segments into a memory-only store.

    The replayed ring is unbounded. Torn lines are skipped by
    :func:`repro.obs.segmentlog.read_rows`, and rows that
    :meth:`TraceRecord.from_dict` rejects are skipped here. Duplicate
    request ids resolve to the newest occurrence, matching the live
    ring's behaviour. Raises ``FileNotFoundError`` when ``directory``
    does not exist and ``ValueError`` when it holds no trace segments.
    """
    store = TraceStore(ring_size=None)
    for doc in read_rows(directory, TRACE_SEGMENT_PREFIX, "trace"):
        try:
            record = TraceRecord.from_dict(doc)
        except ValueError:
            continue
        store.add(record, persist=False)
    return store


# ----------------------------------------------------------------------
# Span-tree analysis
# ----------------------------------------------------------------------
def _span_id(span: Mapping[str, Any]) -> int:
    return int(span.get("id", -1))


def _span_parent(span: Mapping[str, Any]) -> int:
    parent = span.get("parent")
    return -1 if parent is None else int(parent)


def _children_index(
    spans: Sequence[Mapping[str, Any]],
) -> Dict[int, List[Mapping[str, Any]]]:
    children: Dict[int, List[Mapping[str, Any]]] = {}
    for span in spans:
        children.setdefault(_span_parent(span), []).append(span)
    return children


def self_seconds(spans: Sequence[Mapping[str, Any]]) -> Dict[int, float]:
    """Per-span self time: duration minus direct children, clamped >= 0.

    Children recorded with clock skew (a child claiming more time than
    its parent, or children overlapping past the parent's envelope) are
    clamped so a span's self time never goes negative and a child never
    contributes more than the parent's own duration.
    """
    children = _children_index(spans)
    out: Dict[int, float] = {}
    for span in spans:
        total = max(0.0, float(span.get("seconds", 0.0)))
        child_sum = sum(
            min(max(0.0, float(c.get("seconds", 0.0))), total)
            for c in children.get(_span_id(span), [])
        )
        out[_span_id(span)] = max(0.0, total - min(child_sum, total))
    return out


def critical_path(spans: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Heaviest root-to-leaf chain: at each level follow the slowest child.

    The root is the longest span whose parent is not part of the trace.
    Returns the chain root-first; empty input yields an empty list.
    """
    if not spans:
        return []
    ids = {_span_id(span) for span in spans}
    children = _children_index(spans)
    roots = [span for span in spans if _span_parent(span) not in ids]
    if not roots:  # cyclic/garbage input: fall back to the longest span
        roots = list(spans)
    current = max(roots, key=lambda s: float(s.get("seconds", 0.0)))
    path = [dict(current)]
    seen = {_span_id(current)}
    while True:
        kids = [
            c
            for c in children.get(_span_id(current), [])
            if _span_id(c) not in seen
        ]
        if not kids:
            return path
        current = max(kids, key=lambda s: float(s.get("seconds", 0.0)))
        seen.add(_span_id(current))
        path.append(dict(current))


def format_trace(record: TraceRecord) -> str:
    """Human-readable tree of one trace with total/self time per span.

    Spans print in start order, indented by depth; members of the
    critical path are marked with ``*``. The header carries the request
    summary (endpoint, status, duration, keep reasons).
    """
    lines = [
        f"trace {record.request_id}  endpoint={record.endpoint}"
        f"  status={record.status}  {record.seconds * 1e3:.1f}ms"
        f"  reasons={','.join(record.reasons) or '-'}"
        f"  spans={len(record.spans)}"
    ]
    if not record.spans:
        lines.append("  (no spans captured)")
        return "\n".join(lines)
    selfs = self_seconds(record.spans)
    on_path = {_span_id(span) for span in critical_path(record.spans)}
    total = max(record.seconds, 1e-12)
    ordered = sorted(
        record.spans,
        key=lambda s: (float(s.get("start", 0.0)), _span_id(s)),
    )
    lines.append(
        f"  {'span':<40} {'total':>10} {'self':>10} {'self%':>6}  path"
    )
    for span in ordered:
        depth = max(0, int(span.get("depth", 0)))
        name = "  " * depth + str(span.get("name", "?"))
        seconds = float(span.get("seconds", 0.0))
        own = selfs.get(_span_id(span), 0.0)
        marker = "*" if _span_id(span) in on_path else ""
        lines.append(
            f"  {name:<40} {seconds * 1e3:>8.2f}ms {own * 1e3:>8.2f}ms"
            f" {100.0 * own / total:>5.1f}%  {marker}"
        )
    return "\n".join(lines)


def merge_profile(
    records: Iterable[TraceRecord],
) -> Dict[str, Dict[str, float]]:
    """Merge span trees into a cumulative per-name profile.

    Returns ``name -> {"count", "total_seconds", "self_seconds"}`` — the
    flamegraph-style aggregate view across every stored trace: where did
    the kept requests actually spend their time.
    """
    profile: Dict[str, Dict[str, float]] = {}
    for record in records:
        selfs = self_seconds(record.spans)
        for span in record.spans:
            name = str(span.get("name", "?"))
            row = profile.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            row["count"] += 1
            row["total_seconds"] += float(span.get("seconds", 0.0))
            row["self_seconds"] += selfs.get(_span_id(span), 0.0)
    return profile


def format_profile(
    profile: Mapping[str, Mapping[str, float]], limit: Optional[int] = None
) -> str:
    """Render :func:`merge_profile` output, hottest self time first."""
    rows = sorted(
        profile.items(),
        key=lambda item: (-item[1]["self_seconds"], item[0]),
    )
    if limit is not None:
        rows = rows[: max(0, int(limit))]
    total_self = sum(row["self_seconds"] for row in profile.values()) or 1e-12
    lines = [f"{'span':<40} {'count':>7} {'total':>10} {'self':>10} {'self%':>6}"]
    for name, row in rows:
        lines.append(
            f"{name:<40} {int(row['count']):>7}"
            f" {row['total_seconds'] * 1e3:>8.1f}ms"
            f" {row['self_seconds'] * 1e3:>8.1f}ms"
            f" {100.0 * row['self_seconds'] / total_self:>5.1f}%"
        )
    return "\n".join(lines)


def trace_to_chrome(record: TraceRecord) -> Dict[str, Any]:
    """Chrome ``trace_event`` document for one stored trace."""
    return to_chrome_trace({"spans": record.spans}, process_name=record.request_id)
