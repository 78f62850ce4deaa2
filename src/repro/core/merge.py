"""Merging two atypical clusters (Algorithm 2, Equations 5-6).

The merged macro-cluster accumulates the severities of common sensors and
time windows and keeps the non-overlapping entries; a fresh id is assigned.
The operation is commutative and associative (Property 3), which makes the
integration result independent of merge order at the feature level.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cluster import AtypicalCluster, ClusterIdGenerator

__all__ = ["merge_clusters"]


def merge_clusters(
    a: AtypicalCluster,
    b: AtypicalCluster,
    ids: Optional[ClusterIdGenerator] = None,
) -> AtypicalCluster:
    """Algorithm 2: merge ``a`` and ``b`` into a new macro-cluster.

    The returned cluster's features follow Eq. 5/6; its ``members`` records
    the two input ids (provenance for the clustering tree), and its level is
    one above the deeper input.
    """
    generator = ids if ids is not None else ClusterIdGenerator(
        max(a.cluster_id, b.cluster_id) + 1
    )
    return AtypicalCluster(
        cluster_id=generator.next_id(),
        spatial=a.spatial.merge(b.spatial),
        temporal=a.temporal.merge(b.temporal),
        level=max(a.level, b.level) + 1,
        members=(a.cluster_id, b.cluster_id),
    )
