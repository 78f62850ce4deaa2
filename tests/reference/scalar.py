"""Dict-loop scalar oracles for Eq. 2-4 and Algorithm 3, plus their workload.

The vectorized similarity kernels and the indexed / heap-naive
integrators in :mod:`repro.core` must reproduce these plain-Python
reimplementations byte for byte: every severity sum here runs in the
same ascending-key order as the kernels, and ties break on the lowest
cluster id, so agreement is exact, not approximate.

``synthetic_micro_clusters`` is the Fig. 15-sized workload the kernel
tests and ``benchmarks/test_integration_kernel.py`` share. Nothing in
this module times anything.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.features import SpatialFeature, TemporalFeature
from repro.core.similarity import BALANCE_FUNCTIONS

__all__ = [
    "synthetic_micro_clusters",
    "as_dicts",
    "dict_similarity",
    "scalar_indexed_integrate",
    "scalar_rescan_naive_integrate",
]

DictCluster = Tuple[dict, dict, float, float]


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def synthetic_micro_clusters(
    num_clusters: int = 400,
    seed: int = 7,
    num_sensors: int = 900,
    num_windows: int = 288,
) -> List[AtypicalCluster]:
    """Deterministic micro-clusters with realistic sensor/window locality.

    Events concentrate around hotspot sensors and rush-hour windows, so the
    candidate structure (shared sensors/windows) resembles what one week of
    the benchmark trace feeds into Algorithm 3.
    """
    rng = np.random.default_rng(seed)
    ids = ClusterIdGenerator()
    hotspots = rng.integers(0, num_sensors, size=max(8, num_clusters // 12))
    clusters: List[AtypicalCluster] = []
    for _ in range(num_clusters):
        center = int(hotspots[rng.integers(0, hotspots.size)])
        spread = int(rng.integers(3, 30))
        raw = center + rng.integers(-spread, spread + 1, size=int(rng.integers(4, 30)))
        sensor_keys = np.unique(np.clip(raw, 0, num_sensors - 1))
        severities = rng.uniform(1.0, 30.0, size=sensor_keys.size)
        total = float(severities.sum())

        start = int(rng.integers(0, num_windows - 40))
        length = int(rng.integers(2, 16))
        window_keys = start + np.arange(length, dtype=np.int64)
        weights = rng.uniform(0.5, 1.0, size=length)
        window_sev = weights * (total / float(weights.sum()))

        clusters.append(
            AtypicalCluster(
                cluster_id=ids.next_id(),
                spatial=SpatialFeature.from_arrays(sensor_keys, severities),
                temporal=TemporalFeature.from_arrays(window_keys, window_sev),
            )
        )
    return clusters


# ----------------------------------------------------------------------
# Eq. 2-4 over plain dicts
# ----------------------------------------------------------------------
def as_dicts(cluster: AtypicalCluster) -> DictCluster:
    """``(spatial, temporal, s_total, t_total)`` as plain dicts and floats."""
    spatial = dict(cluster.spatial.items())
    temporal = dict(cluster.temporal.items())
    return spatial, temporal, cluster.spatial.total(), cluster.temporal.total()


def _dict_overlap(a: dict, b: dict) -> float:
    if len(a) <= len(b):
        return sum(v for k, v in a.items() if k in b)
    return sum(a[k] for k in b if k in a)


def dict_similarity(
    a: DictCluster, b: DictCluster, g: Callable[[float, float], float]
) -> float:
    """Eq. 2 on pre-extracted ``(spatial, temporal, s_total, t_total)``."""
    a_s, a_t, a_st, a_tt = a
    b_s, b_t, b_st, b_tt = b
    p1 = _dict_overlap(a_s, b_s) / a_st if a_st else 0.0
    p2 = _dict_overlap(b_s, a_s) / b_st if b_st else 0.0
    spatial = g(p1, p2)
    p1 = _dict_overlap(a_t, b_t) / a_tt if a_tt else 0.0
    p2 = _dict_overlap(b_t, a_t) / b_tt if b_tt else 0.0
    return 0.5 * (spatial + g(p1, p2))


# ----------------------------------------------------------------------
# Algorithm 3 over plain dicts
# ----------------------------------------------------------------------
def _merged(
    ids: ClusterIdGenerator, first: AtypicalCluster, second: AtypicalCluster
) -> AtypicalCluster:
    return AtypicalCluster(
        cluster_id=ids.next_id(),
        spatial=first.spatial.merge(second.spatial),
        temporal=first.temporal.merge(second.temporal),
        level=max(first.level, second.level) + 1,
        members=(first.cluster_id, second.cluster_id),
    )


def _by_severity(active: Dict[int, AtypicalCluster]) -> List[AtypicalCluster]:
    return sorted(active.values(), key=lambda c: (-c.severity(), c.cluster_id))


def scalar_indexed_integrate(
    clusters: List[AtypicalCluster],
    threshold: float = 0.5,
    balance: str = "avg",
) -> Tuple[List[AtypicalCluster], int, int]:
    """Indexed Algorithm 3 with dict-loop similarity, no batch kernels and
    no cross-iteration cache. Returns (macro clusters, merges,
    comparisons) with the same deterministic tie-breaking as the
    production path, so the two must agree cluster for cluster."""
    g = BALANCE_FUNCTIONS[balance]
    ids = ClusterIdGenerator(max(c.cluster_id for c in clusters) + 1)
    active: Dict[int, AtypicalCluster] = {c.cluster_id: c for c in clusters}
    dicts = {cid: as_dicts(c) for cid, c in active.items()}
    by_sensor: Dict[int, set] = {}
    by_window: Dict[int, set] = {}

    def index(cluster: AtypicalCluster) -> None:
        for sensor in cluster.spatial:
            by_sensor.setdefault(sensor, set()).add(cluster.cluster_id)
        for window in cluster.temporal:
            by_window.setdefault(window, set()).add(cluster.cluster_id)

    def unindex(cluster: AtypicalCluster) -> None:
        for sensor in cluster.spatial:
            by_sensor[sensor].discard(cluster.cluster_id)
        for window in cluster.temporal:
            by_window[window].discard(cluster.cluster_id)

    for cluster in active.values():
        index(cluster)

    # sensor-disjoint pairs score at most 1/2, so the window index only
    # widens the candidate set below that threshold
    use_window_candidates = threshold < 0.5
    merges = 0
    comparisons = 0
    queue = sorted(active)
    queued = set(queue)
    head = 0
    while head < len(queue):
        cid = queue[head]
        head += 1
        queued.discard(cid)
        cluster = active.get(cid)
        if cluster is None:
            continue
        candidates: set = set()
        for sensor in cluster.spatial:
            candidates.update(by_sensor.get(sensor, ()))
        if use_window_candidates:
            for window in cluster.temporal:
                candidates.update(by_window.get(window, ()))
        candidates.discard(cid)

        best_sim = threshold
        best_id: Optional[int] = None
        for other_id in sorted(candidates):
            comparisons += 1
            sim = dict_similarity(dicts[cid], dicts[other_id], g)
            if sim > best_sim:
                best_sim = sim
                best_id = other_id
        if best_id is None:
            continue

        other = active.pop(best_id)
        del active[cid]
        unindex(cluster)
        unindex(other)
        merged = _merged(ids, cluster, other)
        active[merged.cluster_id] = merged
        dicts[merged.cluster_id] = as_dicts(merged)
        index(merged)
        merges += 1
        if merged.cluster_id not in queued:
            queue.append(merged.cluster_id)
            queued.add(merged.cluster_id)

    return _by_severity(active), merges, comparisons


def scalar_rescan_naive_integrate(
    clusters: List[AtypicalCluster],
    threshold: float = 0.5,
    balance: str = "avg",
) -> Tuple[List[AtypicalCluster], int, int]:
    """Naive Algorithm 3 as a full re-scan: every fixpoint iteration scores
    all active pairs with dict-loop similarity, merges the global best
    pair (lowest id pair on ties) and starts over — O(merges * n^2)
    evaluations. The heap-based ``"naive"`` method must merge in exactly
    this order."""
    g = BALANCE_FUNCTIONS[balance]
    ids = ClusterIdGenerator(max(c.cluster_id for c in clusters) + 1)
    active: Dict[int, AtypicalCluster] = {c.cluster_id: c for c in clusters}
    dicts = {cid: as_dicts(c) for cid, c in active.items()}
    merges = 0
    comparisons = 0
    while True:
        best_sim = threshold
        best_pair: Optional[Tuple[int, int]] = None
        ordered = sorted(active)
        for i, a_id in enumerate(ordered):
            a_s, a_t, _, _ = dicts[a_id]
            for b_id in ordered[i + 1 :]:
                b_s, b_t, _, _ = dicts[b_id]
                if not (a_s.keys() & b_s.keys() or a_t.keys() & b_t.keys()):
                    continue  # dict-loop fast reject (can_be_similar)
                comparisons += 1
                sim = dict_similarity(dicts[a_id], dicts[b_id], g)
                if sim > best_sim:
                    best_sim = sim
                    best_pair = (a_id, b_id)
        if best_pair is None:
            break
        a_id, b_id = best_pair
        merged = _merged(ids, active.pop(a_id), active.pop(b_id))
        active[merged.cluster_id] = merged
        dicts[merged.cluster_id] = as_dicts(merged)
        merges += 1
    return _by_severity(active), merges, comparisons
