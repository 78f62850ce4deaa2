"""Columnar, memory-mapped storage engine for the atypical forest.

The legacy ``CPSF\\x01`` container (:mod:`repro.storage.forest_io`) is one
opaque cluster blob: loading it deserializes every registered cluster even
when a query touches three days out of a year. This module implements the
``CPSF\\x02`` **columnar** format, which lays the forest out as per-level /
per-day *column groups* over the sorted key/severity arrays the features
already store, so ``load_forest`` can hand back a lazily-materialized
forest: a query spanning 3 days faults in 3 day groups, not the whole
file — the partial-I/O behaviour the paper's query-cost experiment
(Fig. 17b) measures.

On-disk layout (all integers little-endian)::

    magic   b"CPSF\\x02\\n"                                   6 bytes
    pad     2 zero bytes (first group starts 8-aligned)
    group 0 payload   column arrays, each 8-byte aligned
    group 1 payload
    ...
    footer  JSON (utf-8)
    trailer uint64 footer length | uint32 crc32(footer)      12 bytes

Each **column group** holds the clusters of one forest unit — the micro
leaves of one day, or the merge products of one week / month
materialization — as parallel column arrays:

========  ======  ======================================================
column    dtype   meaning
========  ======  ======================================================
id        int64   cluster id
level     int32   aggregation level (0 for micro leaves)
rank      int64   global registry-insertion position (round-trip order)
severity  f64     total severity (summary column for scans)
slo/shi   int64   min/max sensor key   (spatial bounding "region")
wlo/whi   int64   min/max window key   (temporal bounding "region")
moff      int64   member-list offsets, ``rows + 1`` entries
mids      int64   concatenated member ids
soff      int64   spatial-feature offsets, ``rows + 1`` entries
skey/sval i64/f64 concatenated sorted sensor keys / severities
toff      int64   temporal-feature offsets, ``rows + 1`` entries
tkey/tval i64/f64 concatenated sorted window keys / severities
========  ======  ======================================================

The footer carries a string dictionary (group kinds, column names and
dtypes are stored as indices into it), one descriptor per group (kind,
key, row count, absolute offset, payload size, CRC-32, per-column
offsets) and the forest metadata: calendar, window width, the
``micro_by_day`` / ``week_cache`` / ``month_cache`` id lists in their
original insertion order, shard provenance and the highest assigned
cluster id. Feature keys are stored as ``int64`` — exactly the dtype
:class:`~repro.core.features.SeverityFeature` uses internally — so a
read-only ``numpy.memmap`` slice becomes a feature with **zero copies**.

Integrity: the footer CRC is verified at open (a corrupt index must
never dispatch reads); each group CRC is verified once, lazily, when the
group is first materialized — so integrity checking faults in exactly
the bytes a query needs and no more. All structural failures raise
:class:`~repro.storage.codec.CodecError` with a one-line actionable
message (the CLI maps them to exit code 2, never a traceback).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.features import SpatialFeature, TemporalFeature
from repro.core.forest import AtypicalForest, ForestStats
from repro.core.integration import ClusterIntegrator
from repro.spatial.regions import QueryRegion
from repro.storage.codec import CodecError
from repro.temporal.hierarchy import Calendar
from repro.temporal.windows import WindowSpec

__all__ = [
    "COLUMNAR_MAGIC",
    "FORMAT_VERSION",
    "ColumnGroup",
    "ColumnContainer",
    "ContainerWriter",
    "ColumnarForest",
    "cluster_columns",
    "clusters_from_columns",
    "sniff_format",
    "write_forest_columnar",
    "open_forest_columnar",
]

#: Magic of the columnar container; byte 4 is the format version.
COLUMNAR_MAGIC = b"CPSF\x02\n"
#: Magic of the legacy single-blob container (see forest_io).
LEGACY_MAGIC = b"CPSF\x01\n"
_MAGIC_PREFIX = b"CPSF"
#: Highest footer ``version`` this build can read.
FORMAT_VERSION = 2
_ALIGN = 8
_TRAILER = struct.Struct("<QI")  # footer length, footer crc32


def _pad(n: int) -> int:
    """Bytes of zero padding that align ``n`` to the next 8-byte boundary."""
    return (-n) % _ALIGN


def sniff_format(path: Path | str) -> str:
    """``"legacy"`` / ``"columnar"`` from a forest file's magic.

    Raises :class:`~repro.storage.codec.CodecError` with a one-line
    message for non-forest files and for forest files written by a newer
    format version than this build understands.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(COLUMNAR_MAGIC))
    if magic == LEGACY_MAGIC:
        return "legacy"
    if magic == COLUMNAR_MAGIC:
        return "columnar"
    if magic[:4] == _MAGIC_PREFIX and len(magic) == 6:
        raise CodecError(
            f"{path}: forest format version {magic[4]} is newer than this "
            f"build supports (up to {FORMAT_VERSION}); upgrade repro or "
            "convert the model with a newer version"
        )
    raise CodecError(f"{path}: not a forest file (bad magic)")


# ----------------------------------------------------------------------
# Generic column container
# ----------------------------------------------------------------------
class ContainerWriter:
    """Accumulates column groups and writes one ``CPSF\\x02`` container.

    Each group is a ``(kind, key, columns, meta)`` tuple where ``columns``
    is an ordered list of ``(name, 1-d array)`` pairs. The writer interns
    kinds, column names and dtype tokens into the footer string
    dictionary and 8-byte-aligns every column so readers can take typed
    views straight off the mapping.
    """

    def __init__(self) -> None:
        self._strings: List[str] = []
        self._interned: Dict[str, int] = {}
        self._groups: List[dict] = []
        self._payloads: List[bytes] = []
        self._offset = len(COLUMNAR_MAGIC) + _pad(len(COLUMNAR_MAGIC))

    def _intern(self, text: str) -> int:
        index = self._interned.get(text)
        if index is None:
            index = self._interned[text] = len(self._strings)
            self._strings.append(text)
        return index

    def add_group(
        self,
        kind: str,
        key: int,
        columns: Sequence[Tuple[str, np.ndarray]],
        rows: int,
        meta: Optional[dict] = None,
    ) -> None:
        """Append one column group (``rows`` is the cluster/row count)."""
        parts: List[bytes] = []
        descriptors: List[List[int]] = []
        relative = 0
        for name, array in columns:
            array = np.ascontiguousarray(array)
            raw = array.tobytes()
            descriptors.append(
                [
                    self._intern(name),
                    relative,
                    self._intern(array.dtype.str),
                    int(array.size),
                ]
            )
            parts.append(raw)
            padding = _pad(len(raw))
            if padding:
                parts.append(b"\x00" * padding)
            relative += len(raw) + padding
        payload = b"".join(parts)
        group = {
            "kind": self._intern(kind),
            "key": int(key),
            "rows": int(rows),
            "offset": self._offset,
            "size": len(payload),
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
            "columns": descriptors,
        }
        if meta:
            group["meta"] = meta
        self._groups.append(group)
        self._payloads.append(payload)
        self._offset += len(payload)

    def write(self, path: Path | str, meta: Optional[dict] = None) -> int:
        """Write the container to ``path``; returns the bytes written."""
        footer = {
            "version": FORMAT_VERSION,
            "strings": self._strings,
            "groups": self._groups,
        }
        if meta is not None:
            footer["meta"] = meta
        footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(COLUMNAR_MAGIC)
            handle.write(b"\x00" * _pad(len(COLUMNAR_MAGIC)))
            for payload in self._payloads:
                handle.write(payload)
            handle.write(footer_bytes)
            handle.write(
                _TRAILER.pack(
                    len(footer_bytes), zlib.crc32(footer_bytes) & 0xFFFFFFFF
                )
            )
            return handle.tell()


class ColumnGroup:
    """One decoded group descriptor of an open container."""

    __slots__ = ("index", "kind", "key", "rows", "offset", "size", "crc32", "columns", "meta")

    def __init__(self, index: int, kind: str, entry: dict, strings: List[str]):
        self.index = index
        self.kind = kind
        self.key = int(entry["key"])
        self.rows = int(entry["rows"])
        self.offset = int(entry["offset"])
        self.size = int(entry["size"])
        self.crc32 = int(entry["crc32"])
        self.columns: Dict[str, Tuple[int, str, int]] = {
            strings[name]: (int(rel), strings[dtype], int(count))
            for name, rel, dtype, count in entry["columns"]
        }
        self.meta: dict = entry.get("meta", {})


class ColumnContainer:
    """A ``CPSF\\x02`` container opened over a read-only ``numpy.memmap``.

    Opening validates the magic, the trailer and the footer CRC, and
    decodes the group index — a few KB of I/O regardless of file size.
    Column reads return zero-copy typed views into the mapping; a group's
    payload CRC is verified once, on its first column access, so the
    integrity check only faults in the bytes a caller actually uses.

    ``bytes_loaded`` accounts the footer plus each verified group's
    payload — a faithful *faulted-bytes estimate*, since CRC verification
    touches every page of the group exactly once.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        try:
            self._mm: np.ndarray = np.memmap(self.path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as exc:
            raise CodecError(f"{self.path}: cannot map file ({exc})")
        size = int(self._mm.size)
        overhead = len(COLUMNAR_MAGIC) + _TRAILER.size
        if size < overhead:
            raise CodecError(f"{self.path}: truncated columnar file ({size} bytes)")
        if bytes(self._mm[: len(COLUMNAR_MAGIC)]) != COLUMNAR_MAGIC:
            # delegate to the sniffer for the precise one-line diagnosis
            sniff_format(self.path)
            raise CodecError(f"{self.path}: not a columnar forest file")
        footer_len, footer_crc = _TRAILER.unpack(
            bytes(self._mm[size - _TRAILER.size :])
        )
        if footer_len > size - overhead:
            raise CodecError(
                f"{self.path}: truncated columnar file (footer length "
                f"{footer_len} exceeds file size {size})"
            )
        footer_bytes = bytes(
            self._mm[size - _TRAILER.size - footer_len : size - _TRAILER.size]
        )
        if zlib.crc32(footer_bytes) & 0xFFFFFFFF != footer_crc:
            raise CodecError(
                f"{self.path}: footer checksum mismatch (corrupt or truncated file)"
            )
        try:
            footer = json.loads(footer_bytes.decode("utf-8"))
        except ValueError:
            raise CodecError(f"{self.path}: footer is not valid JSON")
        version = int(footer.get("version", 0))
        if version > FORMAT_VERSION:
            raise CodecError(
                f"{self.path}: forest format version {version} is newer than "
                f"this build supports (up to {FORMAT_VERSION}); upgrade repro "
                "or convert the model with a newer version"
            )
        strings: List[str] = list(footer.get("strings", []))
        self.meta: dict = footer.get("meta", {})
        try:
            self.groups: List[ColumnGroup] = [
                ColumnGroup(i, strings[entry["kind"]], entry, strings)
                for i, entry in enumerate(footer.get("groups", []))
            ]
        except (KeyError, IndexError, TypeError, ValueError):
            raise CodecError(f"{self.path}: malformed group index in footer")
        self._verified: set[int] = set()
        self.bytes_mapped = size
        self.bytes_loaded = len(COLUMNAR_MAGIC) + footer_len + _TRAILER.size

    # ------------------------------------------------------------------
    @property
    def groups_total(self) -> int:
        """Number of column groups in the container."""
        return len(self.groups)

    @property
    def groups_loaded(self) -> int:
        """Number of groups whose payload has been verified and read."""
        return len(self._verified)

    def verify_group(self, index: int) -> None:
        """CRC-check a group's payload once (CodecError on mismatch)."""
        if index in self._verified:
            return
        group = self.groups[index]
        payload = self._mm[group.offset : group.offset + group.size]
        if payload.size != group.size:
            raise CodecError(
                f"{self.path}: truncated columnar file (group "
                f"{group.kind}/{group.key} payload out of bounds)"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != group.crc32:
            raise CodecError(
                f"{self.path}: checksum mismatch in group "
                f"{group.kind}/{group.key} (corrupt file)"
            )
        self._verified.add(index)
        self.bytes_loaded += group.size
        if obs.enabled():
            obs.counter("query_io.groups_loaded").inc()
            obs.counter("query_io.bytes_loaded").inc(group.size)

    def column(self, index: int, name: str, copy: bool = False) -> np.ndarray:
        """A typed view of one column (zero-copy unless ``copy``)."""
        self.verify_group(index)
        group = self.groups[index]
        try:
            rel, dtype, count = group.columns[name]
        except KeyError:
            raise CodecError(
                f"{self.path}: group {group.kind}/{group.key} has no "
                f"column {name!r}"
            )
        view = np.frombuffer(
            self._mm, dtype=np.dtype(dtype), count=count, offset=group.offset + rel
        )
        return np.array(view) if copy else view

    def io_stats(self) -> Dict[str, int]:
        """Bytes mapped/loaded and group counts (the fig17b accounting)."""
        return {
            "bytes_mapped": int(self.bytes_mapped),
            "bytes_loaded": int(self.bytes_loaded),
            "groups_loaded": self.groups_loaded,
            "groups_total": self.groups_total,
        }


# ----------------------------------------------------------------------
# Cluster <-> column codec
# ----------------------------------------------------------------------
def cluster_columns(
    clusters: Sequence[AtypicalCluster],
    ranks: Optional[Sequence[int]] = None,
) -> List[Tuple[str, np.ndarray]]:
    """Encode clusters as the columnar group layout (see module doc).

    ``ranks`` attaches the global registry-insertion positions that let a
    reader reproduce the legacy serialization order byte-for-byte; shard
    scratch files omit it.
    """
    n = len(clusters)
    ids = np.fromiter((c.cluster_id for c in clusters), dtype=np.int64, count=n)
    levels = np.fromiter((c.level for c in clusters), dtype=np.int32, count=n)
    severity = np.fromiter((c.severity() for c in clusters), dtype=np.float64, count=n)
    moff = np.zeros(n + 1, dtype=np.int64)
    soff = np.zeros(n + 1, dtype=np.int64)
    toff = np.zeros(n + 1, dtype=np.int64)
    slo = np.zeros(n, dtype=np.int64)
    shi = np.zeros(n, dtype=np.int64)
    wlo = np.zeros(n, dtype=np.int64)
    whi = np.zeros(n, dtype=np.int64)
    for i, cluster in enumerate(clusters):
        moff[i + 1] = moff[i] + len(cluster.members)
        soff[i + 1] = soff[i] + len(cluster.spatial)
        toff[i + 1] = toff[i] + len(cluster.temporal)
        skeys = cluster.spatial.key_array
        tkeys = cluster.temporal.key_array
        slo[i], shi[i] = int(skeys[0]), int(skeys[-1])
        wlo[i], whi[i] = int(tkeys[0]), int(tkeys[-1])
    mids = np.empty(int(moff[-1]), dtype=np.int64)
    skey = np.empty(int(soff[-1]), dtype=np.int64)
    sval = np.empty(int(soff[-1]), dtype=np.float64)
    tkey = np.empty(int(toff[-1]), dtype=np.int64)
    tval = np.empty(int(toff[-1]), dtype=np.float64)
    for i, cluster in enumerate(clusters):
        mids[moff[i] : moff[i + 1]] = cluster.members
        skey[soff[i] : soff[i + 1]] = cluster.spatial.key_array
        sval[soff[i] : soff[i + 1]] = cluster.spatial.value_array
        tkey[toff[i] : toff[i + 1]] = cluster.temporal.key_array
        tval[toff[i] : toff[i + 1]] = cluster.temporal.value_array
    columns: List[Tuple[str, np.ndarray]] = [
        ("id", ids),
        ("level", levels),
        ("severity", severity),
        ("slo", slo),
        ("shi", shi),
        ("wlo", wlo),
        ("whi", whi),
        ("moff", moff),
        ("mids", mids),
        ("soff", soff),
        ("skey", skey),
        ("sval", sval),
        ("toff", toff),
        ("tkey", tkey),
        ("tval", tval),
    ]
    if ranks is not None:
        columns.insert(
            3, ("rank", np.asarray(ranks, dtype=np.int64))
        )
    return columns


def clusters_from_columns(
    container: ColumnContainer, index: int, copy: bool = False
) -> List[AtypicalCluster]:
    """Materialize one group's clusters.

    With ``copy=False`` the features wrap read-only views into the
    mapping (zero-copy); pass ``copy=True`` when the backing file is
    transient (e.g. a worker's shard scratch file deleted after reduce).
    """
    group = container.groups[index]
    n = group.rows
    ids = container.column(index, "id")
    levels = container.column(index, "level")
    moff = container.column(index, "moff")
    mids = container.column(index, "mids")
    soff = container.column(index, "soff")
    skey = container.column(index, "skey", copy=copy)
    sval = container.column(index, "sval", copy=copy)
    toff = container.column(index, "toff")
    tkey = container.column(index, "tkey", copy=copy)
    tval = container.column(index, "tval", copy=copy)
    if copy:
        # freeze the copies so from_arrays wraps them without re-copying
        for array in (skey, sval, tkey, tval):
            array.flags.writeable = False
    clusters: List[AtypicalCluster] = []
    try:
        for i in range(n):
            s0, s1 = int(soff[i]), int(soff[i + 1])
            t0, t1 = int(toff[i]), int(toff[i + 1])
            spatial = SpatialFeature.from_arrays(
                skey[s0:s1], sval[s0:s1], assume_sorted=True, validate=False
            )
            temporal = TemporalFeature.from_arrays(
                tkey[t0:t1], tval[t0:t1], assume_sorted=True, validate=False
            )
            clusters.append(
                AtypicalCluster(
                    cluster_id=int(ids[i]),
                    spatial=spatial,
                    temporal=temporal,
                    level=int(levels[i]),
                    members=tuple(
                        int(m) for m in mids[int(moff[i]) : int(moff[i + 1])]
                    ),
                )
            )
    except (IndexError, ValueError) as exc:
        raise CodecError(
            f"{container.path}: malformed cluster data in group "
            f"{group.kind}/{group.key} ({exc})"
        )
    return clusters


# ----------------------------------------------------------------------
# Forest writer
# ----------------------------------------------------------------------
def _partition_registry(state: dict) -> List[Tuple[str, int, List[int]]]:
    """Assign every registered cluster to exactly one column group.

    Day groups take the micro leaves in their stored list order. Each
    week/month cache entry claims the not-yet-assigned clusters reachable
    through the ``members`` links of its final macro-clusters — exactly
    the merge products created by that materialization, in registry
    (= creation) order. Clusters orphaned by a cache invalidation (a
    materialized level popped by a later ``add_day``) land in a trailing
    ``loose`` group so the registry round-trips completely.
    """
    clusters: List[AtypicalCluster] = state["clusters"]
    rank_of = {c.cluster_id: i for i, c in enumerate(clusters)}
    registry = {c.cluster_id: c for c in clusters}
    assigned: set[int] = set()
    groups: List[Tuple[str, int, List[int]]] = []
    for day, ids in state["micro_by_day"].items():
        assigned.update(ids)
        groups.append(("day", day, list(ids)))
    for kind, cache in (("week", state["week_cache"]), ("month", state["month_cache"])):
        for key, ids in cache.items():
            rows: List[int] = []
            stack = list(ids)
            while stack:
                cid = stack.pop()
                if cid in assigned:
                    continue
                assigned.add(cid)
                rows.append(cid)
                stack.extend(registry[cid].members)
            rows.sort(key=rank_of.__getitem__)
            groups.append((kind, key, rows))
    loose = [c.cluster_id for c in clusters if c.cluster_id not in assigned]
    if loose:
        groups.append(("loose", 0, loose))
    return groups


def write_forest_columnar(forest: AtypicalForest, path: Path | str) -> int:
    """Serialize ``forest`` in the columnar format; returns bytes written.

    The per-row ``rank`` column records each cluster's registry-insertion
    position, so a full materialization of the written file re-exports in
    the exact legacy byte order — the property the ``repro convert``
    round-trip test pins.
    """
    state = forest.export_state()
    clusters: List[AtypicalCluster] = state["clusters"]
    rank_of = {c.cluster_id: i for i, c in enumerate(clusters)}
    registry = {c.cluster_id: c for c in clusters}
    writer = ContainerWriter()
    for kind, key, ids in _partition_registry(state):
        rows = [registry[cid] for cid in ids]
        writer.add_group(
            kind,
            key,
            cluster_columns(rows, ranks=[rank_of[cid] for cid in ids]),
            rows=len(rows),
        )
    meta = {
        "month_lengths": list(forest.calendar.month_lengths),
        "month_names": list(forest.calendar.month_names),
        "first_weekday": forest.calendar.first_weekday,
        "window_minutes": forest.window_spec.width_minutes,
        "micro_by_day": {str(k): v for k, v in state["micro_by_day"].items()},
        "week_cache": {str(k): v for k, v in state["week_cache"].items()},
        "month_cache": {str(k): v for k, v in state["month_cache"].items()},
        "max_id": max((c.cluster_id for c in clusters), default=-1),
    }
    if state.get("provenance") is not None:
        meta["provenance"] = state["provenance"]
    return writer.write(path, meta)


# ----------------------------------------------------------------------
# Lazily-materialized forest
# ----------------------------------------------------------------------
class ColumnarForest(AtypicalForest):
    """An :class:`~repro.core.forest.AtypicalForest` over a mapped file.

    Levels materialize on demand: accessing a day registers only that
    day's column group; a stored week pulls its day groups plus its own
    merge products; everything else stays on disk as cold pages. Queries
    therefore touch ``O(queried days)`` bytes, not ``O(model)`` — the
    behaviour ``tests/storage/test_columnar.py`` asserts.

    The forest stays fully mutable: structural mutations (``add_day``,
    level installs) and whole-registry reads (``export_state``) first
    materialize everything, after which it behaves exactly like an
    eagerly-loaded forest — including byte-identical re-serialization,
    via the stored ``rank`` column.
    """

    def __init__(
        self,
        container: ColumnContainer,
        calendar: Calendar,
        window_spec: WindowSpec,
        integrator: Optional[ClusterIntegrator] = None,
        ids: Optional[ClusterIdGenerator] = None,
    ):
        super().__init__(calendar, window_spec, integrator, ids)
        self._container = container
        meta = container.meta
        self._stored_micro: Dict[int, List[int]] = {
            int(k): list(v) for k, v in meta.get("micro_by_day", {}).items()
        }
        self._stored_weeks: Dict[int, List[int]] = {
            int(k): list(v) for k, v in meta.get("week_cache", {}).items()
        }
        self._stored_months: Dict[int, List[int]] = {
            int(k): list(v) for k, v in meta.get("month_cache", {}).items()
        }
        self._day_group: Dict[int, int] = {}
        self._week_group: Dict[int, int] = {}
        self._month_group: Dict[int, int] = {}
        self._loose_groups: List[int] = []
        for group in container.groups:
            if group.kind == "day":
                self._day_group[group.key] = group.index
            elif group.kind == "week":
                self._week_group[group.key] = group.index
            elif group.kind == "month":
                self._month_group[group.key] = group.index
            elif group.kind == "loose":
                self._loose_groups.append(group.index)
            else:
                raise CodecError(
                    f"{container.path}: unknown group kind {group.kind!r}"
                )
        self._rank_of: Dict[int, int] = {}
        self._next_rank = sum(g.rows for g in container.groups)
        self._loaded_groups: set[int] = set()
        self._fully_loaded = False
        if meta.get("provenance") is not None:
            self.set_provenance(meta["provenance"])

    # ------------------------------------------------------------------
    # Lazy materialization machinery
    # ------------------------------------------------------------------
    def _register(self, cluster: AtypicalCluster) -> None:
        super()._register(cluster)
        # clusters created after load (query-time integration) rank after
        # every stored row, matching the legacy registry-insertion order
        if cluster.cluster_id not in self._rank_of:
            self._rank_of[cluster.cluster_id] = self._next_rank
            self._next_rank += 1

    def _load_group(self, index: int) -> None:
        if index in self._loaded_groups:
            return
        ranks = self._container.column(index, "rank")
        clusters = clusters_from_columns(self._container, index)
        for cluster, rank in zip(clusters, ranks):
            self._rank_of[cluster.cluster_id] = int(rank)
            super()._register(cluster)
        self._loaded_groups.add(index)

    def _ensure_day(self, day: int) -> None:
        if day in self._micro_by_day:
            return
        index = self._day_group.get(day)
        if index is None:
            return
        self._load_group(index)
        self._micro_by_day[day] = [
            self._registry[cid] for cid in self._stored_micro[day]
        ]

    def _stored_days_of_week(self, week: int) -> List[int]:
        return [
            d for d in self._calendar.week_day_range(week) if d in self._day_group
        ]

    def _ensure_week(self, week: int) -> None:
        if week in self._week_cache or week not in self._week_group:
            return
        for day in self._stored_days_of_week(week):
            self._ensure_day(day)
        self._load_group(self._week_group[week])
        self._week_cache[week] = [
            self._registry[cid] for cid in self._stored_weeks[week]
        ]

    def _ensure_month(self, month: int) -> None:
        if month in self._month_cache or month not in self._month_group:
            return
        stored = set(self._day_group)
        weeks = sorted(
            {
                self._calendar.week_of_day(day)
                for day in self._calendar.month_day_range(month)
                if day in stored
            }
        )
        for week in weeks:
            self._ensure_week(week)
        self._load_group(self._month_group[month])
        self._month_cache[month] = [
            self._registry[cid] for cid in self._stored_months[month]
        ]

    def _ensure_full(self) -> None:
        """Materialize every stored group (mutations and full exports)."""
        if self._fully_loaded:
            return
        for day in self._stored_micro:
            self._ensure_day(day)
        for week in self._stored_weeks:
            self._ensure_week(week)
        for month in self._stored_months:
            self._ensure_month(month)
        for index in self._loose_groups:
            self._load_group(index)
        self._fully_loaded = True

    # ------------------------------------------------------------------
    # I/O accounting
    # ------------------------------------------------------------------
    def io_stats(self) -> Dict[str, int]:
        """Bytes mapped vs actually loaded, and column groups touched."""
        return self._container.io_stats()

    # ------------------------------------------------------------------
    # Read paths (materialize only what each access needs)
    # ------------------------------------------------------------------
    @property
    def days(self) -> List[int]:
        """Days with stored or added micro-clusters, ascending (no I/O)."""
        return sorted(set(self._day_group) | set(self._micro_by_day))

    def day_clusters(self, day: int) -> List[AtypicalCluster]:
        """Micro-clusters of one day, faulting in only its column group."""
        self._ensure_day(day)
        return super().day_clusters(day)

    def micro_clusters(
        self,
        days,
        region: Optional[QueryRegion] = None,
    ) -> List[AtypicalCluster]:
        """Micro-clusters of the given days; maps one group per day."""
        days = list(days)
        for day in days:
            self._ensure_day(day)
        return super().micro_clusters(days, region)

    def week_clusters(self, week: int) -> List[AtypicalCluster]:
        """One week's macro-clusters (stored group, else integrated)."""
        self._ensure_week(week)
        return super().week_clusters(week)

    def month_clusters(self, month: int) -> List[AtypicalCluster]:
        """One month's macro-clusters (stored group, else integrated)."""
        self._ensure_month(month)
        return super().month_clusters(month)

    def materialize(self) -> ForestStats:
        """Materialize every level, loading all stored groups first."""
        self._ensure_full()
        return super().materialize()

    def lookup(self, cluster_id: int) -> AtypicalCluster:
        """The registered cluster with this id, loading groups as needed."""
        try:
            return super().lookup(cluster_id)
        except KeyError:
            self._ensure_full()
            return super().lookup(cluster_id)

    def children_of(self, cluster: AtypicalCluster) -> List[AtypicalCluster]:
        """Registered children, loading the groups that hold them."""
        if any(m not in self._registry for m in cluster.members):
            self._ensure_full()
        return super().children_of(cluster)

    def __iter__(self) -> Iterator[AtypicalCluster]:
        for day in self.days:
            self._ensure_day(day)
        yield from super().__iter__()

    def stats(self) -> ForestStats:
        """Cluster counts per level, without forcing a full load."""
        micro = dict(self._stored_micro)
        for day, clusters in self._micro_by_day.items():
            micro[day] = [c.cluster_id for c in clusters]
        weeks = {k: len(v) for k, v in self._stored_weeks.items()}
        weeks.update({k: len(v) for k, v in self._week_cache.items()})
        months = {k: len(v) for k, v in self._stored_months.items()}
        months.update({k: len(v) for k, v in self._month_cache.items()})
        return ForestStats(
            num_days=len(micro),
            num_micro=sum(len(v) for v in micro.values()),
            num_week_macro=sum(weeks.values()),
            num_month_macro=sum(months.values()),
        )

    # ------------------------------------------------------------------
    # Mutations and whole-registry exports force a full load first
    # ------------------------------------------------------------------
    def add_day(self, day: int, clusters) -> None:
        """Store a new day's micro-clusters (loads the full registry)."""
        self._ensure_full()
        super().add_day(day, clusters)

    def install_week(self, week: int, clusters, created=()) -> None:
        """Install an externally computed week level (full load first)."""
        self._ensure_full()
        super().install_week(week, clusters, created)

    def install_month(self, month: int, clusters, created=()) -> None:
        """Install an externally computed month level (full load first)."""
        self._ensure_full()
        super().install_month(month, clusters, created)

    def export_state(self) -> Dict[str, object]:
        """Full structural snapshot, in the original registry order.

        Clusters are sorted by their stored ``rank`` (then post-load
        registration order), and the id maps keep the writer's key
        order — so re-serializing a loaded columnar forest in the legacy
        format reproduces the original legacy bytes exactly.
        """
        self._ensure_full()
        rank = self._rank_of

        def ordered(stored: Dict[int, List[int]], live: Dict[int, list]) -> Dict[int, List[int]]:
            out: Dict[int, List[int]] = {}
            for key in stored:
                # a post-load add_day may have invalidated a stored
                # week/month entry; export only what is still live
                if key not in live:
                    continue
                out[key] = [c.cluster_id for c in live[key]]
            for key, clusters in live.items():
                if key not in out:
                    out[key] = [c.cluster_id for c in clusters]
            return out

        return {
            "clusters": sorted(
                self._registry.values(), key=lambda c: rank[c.cluster_id]
            ),
            "micro_by_day": ordered(self._stored_micro, self._micro_by_day),
            "week_cache": ordered(self._stored_weeks, self._week_cache),
            "month_cache": ordered(self._stored_months, self._month_cache),
            "provenance": self.provenance,
        }


def open_forest_columnar(
    path: Path | str,
    integrator: Optional[ClusterIntegrator] = None,
) -> ColumnarForest:
    """Open a columnar forest file as a lazily-materialized forest.

    Maps the file read-only, reads only the footer index, and resumes the
    id generator above the stored ``max_id`` so query-time integration
    never collides with stored clusters.
    """
    container = ColumnContainer(path)
    meta = container.meta
    try:
        calendar = Calendar(
            month_lengths=tuple(meta["month_lengths"]),
            month_names=tuple(meta["month_names"]),
            first_weekday=meta["first_weekday"],
        )
        window_spec = WindowSpec(meta["window_minutes"])
        next_id = int(meta.get("max_id", -1)) + 1
    except (KeyError, TypeError, ValueError):
        raise CodecError(f"{path}: columnar footer is missing forest metadata")
    return ColumnarForest(
        container,
        calendar,
        window_spec,
        integrator if integrator is not None else ClusterIntegrator(),
        ClusterIdGenerator(next_id),
    )
