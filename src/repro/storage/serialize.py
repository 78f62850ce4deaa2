"""Serialization and model-size accounting for atypical clusters.

Fig. 16 compares the constructed model sizes of the original CubeView (OC),
the modified CubeView (MC), the atypical-cluster model (AC) and the raw
atypical events (AE). This module provides the binary encoding of clusters
that defines AC's on-disk footprint, so the experiment measures real
serialized bytes rather than Python object overhead.

Binary cluster layout (little endian)::

    int64   cluster id
    int32   level
    int32   number of member ids        m
    int32   spatial entries             p
    int32   temporal entries            q
    m*int64 member ids
    p*(int32 sensor, float64 severity)
    q*(int32 window, float64 severity)
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.cluster import AtypicalCluster
from repro.core.features import SeverityFeature, SpatialFeature, TemporalFeature

__all__ = [
    "encode_cluster",
    "decode_cluster",
    "encode_clusters",
    "decode_clusters",
    "clusters_size_bytes",
]

_HEAD = struct.Struct("<qiiii")
_MEMBER = struct.Struct("<q")
_ENTRY = struct.Struct("<id")
# the same 12-byte packed layout as _ENTRY, for whole-section array I/O
_ENTRY_DTYPE = np.dtype([("key", "<i4"), ("severity", "<f8")])
assert _ENTRY_DTYPE.itemsize == _ENTRY.size


def _encode_feature(feature: SeverityFeature) -> bytes:
    """One packed array write per feature section (keys are already sorted)."""
    keys = feature.key_array
    if keys.size and not (
        np.iinfo(np.int32).min <= int(keys[0]) and int(keys[-1]) <= np.iinfo(np.int32).max
    ):
        raise ValueError("feature key out of int32 range for serialization")
    entries = np.empty(keys.size, dtype=_ENTRY_DTYPE)
    entries["key"] = keys
    entries["severity"] = feature.value_array
    return entries.tobytes()


def _decode_feature(
    cls: type, data: bytes, offset: int, count: int
) -> Tuple[SeverityFeature, int]:
    """One frombuffer read per feature section; re-validates key order and
    severity positivity so corrupt bytes still fail loudly."""
    entries = np.frombuffer(data, dtype=_ENTRY_DTYPE, count=count, offset=offset)
    feature = cls.from_arrays(
        entries["key"].astype(np.int64),
        entries["severity"].astype(np.float64),
        assume_sorted=True,
        validate=True,
    )
    return feature, offset + count * _ENTRY.size


def encode_cluster(cluster: AtypicalCluster) -> bytes:
    """Serialize one cluster to its compact binary form."""
    parts: List[bytes] = [
        _HEAD.pack(
            cluster.cluster_id,
            cluster.level,
            len(cluster.members),
            len(cluster.spatial),
            len(cluster.temporal),
        )
    ]
    parts.extend(_MEMBER.pack(member) for member in cluster.members)
    parts.append(_encode_feature(cluster.spatial))
    parts.append(_encode_feature(cluster.temporal))
    return b"".join(parts)


def decode_cluster(data: bytes, offset: int = 0) -> Tuple[AtypicalCluster, int]:
    """Decode one cluster; returns the cluster and the next offset."""
    cluster_id, level, m, p, q = _HEAD.unpack_from(data, offset)
    offset += _HEAD.size
    members = []
    for _ in range(m):
        (member,) = _MEMBER.unpack_from(data, offset)
        members.append(member)
        offset += _MEMBER.size
    spatial, offset = _decode_feature(SpatialFeature, data, offset, p)
    temporal, offset = _decode_feature(TemporalFeature, data, offset, q)
    cluster = AtypicalCluster(
        cluster_id=cluster_id,
        spatial=spatial,
        temporal=temporal,
        level=level,
        members=tuple(members),
    )
    return cluster, offset


def encode_clusters(clusters: Iterable[AtypicalCluster]) -> bytes:
    """Serialize a cluster collection (count-prefixed)."""
    blobs = [encode_cluster(c) for c in clusters]
    return struct.pack("<I", len(blobs)) + b"".join(blobs)


def decode_clusters(data: bytes) -> List[AtypicalCluster]:
    """Inverse of :func:`encode_clusters`."""
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    clusters: List[AtypicalCluster] = []
    for _ in range(count):
        cluster, offset = decode_cluster(data, offset)
        clusters.append(cluster)
    return clusters


def clusters_size_bytes(clusters: Sequence[AtypicalCluster]) -> int:
    """Serialized size of the AC model without materializing the bytes."""
    total = 4
    for cluster in clusters:
        total += (
            _HEAD.size
            + _MEMBER.size * len(cluster.members)
            + _ENTRY.size * (len(cluster.spatial) + len(cluster.temporal))
        )
    return total
