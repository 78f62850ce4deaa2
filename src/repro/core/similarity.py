"""Cluster similarity (Equations 2-4) and balance functions ``g``.

The similarity between two atypical clusters averages a spatial and a
temporal component. Each component computes, for both clusters, the
fraction of the cluster's severity that falls on *common* sensors (or
windows), and balances the two fractions with a function ``g``:
max, min, arithmetic mean, geometric mean or harmonic mean (Sec. III-C).

The paper motivates the choice of ``g``: when a large cluster is compared
with a small one the common-severity fraction of the large cluster is
inevitably small, so ``max`` keeps such pairs similar while ``min`` is the
most conservative. Fig. 21 sweeps all five functions.

Every balance function also has a vectorized counterpart operating on
fraction arrays; :meth:`ClusterSimilarity.batch` scores one cluster
against a whole candidate set in a single kernel call and
:func:`pairwise_similarity` scores every pair of a cluster list with one
sparse product per dimension (see :mod:`repro.core.kernels`). On the five
named functions the scalar and vectorized paths agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, List, Mapping, Sequence

import numpy as np

from repro.core import kernels
from repro.core.cluster import AtypicalCluster

__all__ = [
    "BALANCE_FUNCTIONS",
    "VECTOR_BALANCE_FUNCTIONS",
    "balance_function",
    "vector_balance_function",
    "spatial_similarity",
    "temporal_similarity",
    "similarity",
    "pairwise_similarity",
    "ClusterSimilarity",
]

BalanceFn = Callable[[float, float], float]
VectorBalanceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _balance_max(p1: float, p2: float) -> float:
    return max(p1, p2)


def _balance_min(p1: float, p2: float) -> float:
    return min(p1, p2)


def _balance_arithmetic(p1: float, p2: float) -> float:
    return (p1 + p2) / 2.0


def _balance_geometric(p1: float, p2: float) -> float:
    return math.sqrt(p1 * p2)


def _balance_harmonic(p1: float, p2: float) -> float:
    if p1 + p2 == 0:
        return 0.0
    return 2.0 * p1 * p2 / (p1 + p2)


def _vbalance_max(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    return np.maximum(p1, p2)


def _vbalance_min(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    return np.minimum(p1, p2)


def _vbalance_arithmetic(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    return (p1 + p2) / 2.0


def _vbalance_geometric(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    return np.sqrt(p1 * p2)


def _vbalance_harmonic(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    denom = p1 + p2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 * p1 * p2 / denom
    return np.where(denom == 0.0, 0.0, out)


#: The five balance functions of the paper (Fig. 14 / Fig. 21), keyed by the
#: short names used in the figures.
BALANCE_FUNCTIONS: Mapping[str, BalanceFn] = {
    "max": _balance_max,
    "min": _balance_min,
    "avg": _balance_arithmetic,
    "geo": _balance_geometric,
    "har": _balance_harmonic,
}

#: Vectorized counterparts operating element-wise on fraction arrays.
VECTOR_BALANCE_FUNCTIONS: Mapping[str, VectorBalanceFn] = {
    "max": _vbalance_max,
    "min": _vbalance_min,
    "avg": _vbalance_arithmetic,
    "geo": _vbalance_geometric,
    "har": _vbalance_harmonic,
}

_SCALAR_TO_VECTOR: Mapping[BalanceFn, VectorBalanceFn] = {
    BALANCE_FUNCTIONS[name]: VECTOR_BALANCE_FUNCTIONS[name]
    for name in BALANCE_FUNCTIONS
}


def balance_function(name: str) -> BalanceFn:
    """Look up a balance function by its figure name (``avg`` is the default
    used throughout the evaluation)."""
    try:
        return BALANCE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown balance function {name!r}; "
            f"expected one of {sorted(BALANCE_FUNCTIONS)}"
        ) from None


def vector_balance_function(g: str | BalanceFn) -> VectorBalanceFn:
    """Vectorized form of ``g``: by figure name, by identity for the five
    built-in scalars, or an element-wise wrapper for custom callables."""
    if isinstance(g, str):
        if g not in VECTOR_BALANCE_FUNCTIONS:
            raise ValueError(
                f"unknown balance function {g!r}; "
                f"expected one of {sorted(VECTOR_BALANCE_FUNCTIONS)}"
            )
        return VECTOR_BALANCE_FUNCTIONS[g]
    mapped = _SCALAR_TO_VECTOR.get(g)
    if mapped is not None:
        return mapped

    def elementwise(p1: np.ndarray, p2: np.ndarray, _g: BalanceFn = g) -> np.ndarray:
        flat1 = np.asarray(p1, dtype=np.float64).ravel()
        flat2 = np.asarray(p2, dtype=np.float64).ravel()
        out = np.fromiter(
            (_g(float(a), float(b)) for a, b in zip(flat1, flat2)),
            dtype=np.float64,
            count=flat1.size,
        )
        return out.reshape(np.shape(p1))

    return elementwise


def spatial_similarity(
    a: AtypicalCluster, b: AtypicalCluster, g: BalanceFn
) -> float:
    """Eq. 3: balanced common-sensor severity fractions."""
    p1 = a.spatial.overlap_fraction(b.spatial)
    p2 = b.spatial.overlap_fraction(a.spatial)
    return g(p1, p2)


def temporal_similarity(
    a: AtypicalCluster, b: AtypicalCluster, g: BalanceFn
) -> float:
    """Eq. 4: balanced common-window severity fractions."""
    p1 = a.temporal.overlap_fraction(b.temporal)
    p2 = b.temporal.overlap_fraction(a.temporal)
    return g(p1, p2)


def similarity(a: AtypicalCluster, b: AtypicalCluster, g: BalanceFn) -> float:
    """Eq. 2: the average of spatial and temporal similarity."""
    return 0.5 * (spatial_similarity(a, b, g) + temporal_similarity(a, b, g))


def _fraction_matrix(totals: np.ndarray, numerators: np.ndarray) -> np.ndarray:
    """Row-normalize overlap numerators by each row's total severity."""
    safe = np.where(totals == 0.0, 1.0, totals)
    fractions = numerators / safe[:, None]
    fractions[totals == 0.0, :] = 0.0
    return fractions


def _pairwise_from_vector(
    clusters: Sequence[AtypicalCluster], g_vec: VectorBalanceFn
) -> np.ndarray:
    spatial = [c.spatial for c in clusters]
    temporal = [c.temporal for c in clusters]
    totals_s = np.fromiter(
        (f.total() for f in spatial), dtype=np.float64, count=len(clusters)
    )
    totals_t = np.fromiter(
        (f.total() for f in temporal), dtype=np.float64, count=len(clusters)
    )
    ps = _fraction_matrix(totals_s, kernels.pairwise_overlap_matrix(spatial))
    pt = _fraction_matrix(totals_t, kernels.pairwise_overlap_matrix(temporal))
    return 0.5 * (g_vec(ps, ps.T) + g_vec(pt, pt.T))


def pairwise_similarity(
    clusters: Sequence[AtypicalCluster], g: str | BalanceFn = "avg"
) -> np.ndarray:
    """Eq. 2 for every cluster pair at once.

    Packs all spatial (and temporal) features into one CSR matrix and
    derives every overlap numerator from a single sparse product per
    dimension; the balance function is applied element-wise. The diagonal
    is the self-similarity (1.0 for non-empty clusters).
    """
    return _pairwise_from_vector(clusters, vector_balance_function(g))


class ClusterSimilarity:
    """Configured similarity measure: a balance function plus Eq. 2.

    A small convenience wrapper so algorithms carry one object instead of a
    bare callable; also exposes a fast *reject* test — two clusters with no
    common sensor and no common window have similarity 0 under every
    balance function, which the integration index exploits — and the batch
    kernels used by :class:`~repro.core.integration.ClusterIntegrator`.
    """

    def __init__(self, g: str | BalanceFn = "avg"):
        if callable(g):
            self._g = g
            self._name = getattr(g, "__name__", "custom")
        else:
            self._g = balance_function(g)
            self._name = g
        self._g_vec = vector_balance_function(g)

    @property
    def name(self) -> str:
        """Name of the balance function: ``avg``, ``min`` or ``max``."""
        return self._name

    @property
    def g(self) -> BalanceFn:
        """The scalar balance function ``g`` of Eq. 3-4."""
        return self._g

    def spatial(self, a: AtypicalCluster, b: AtypicalCluster) -> float:
        """Spatial similarity ``simS(a, b)`` (Eq. 3)."""
        return spatial_similarity(a, b, self._g)

    def temporal(self, a: AtypicalCluster, b: AtypicalCluster) -> float:
        """Temporal similarity ``simT(a, b)`` (Eq. 4)."""
        return temporal_similarity(a, b, self._g)

    def __call__(self, a: AtypicalCluster, b: AtypicalCluster) -> float:
        return similarity(a, b, self._g)

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------
    def batch(
        self, a: AtypicalCluster, others: Sequence[AtypicalCluster]
    ) -> np.ndarray:
        """Eq. 2 similarity of ``a`` against every candidate in one call.

        Bit-identical to calling the scalar path per pair (on the five
        named balance functions): the overlap kernels accumulate in the
        same ascending-key order and the fraction/balance arithmetic is
        the same IEEE expression applied element-wise.
        """
        n = len(others)
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        spatial = [o.spatial for o in others]
        temporal = [o.temporal for o in others]
        s_own, s_theirs, t_own, t_theirs = kernels.batch_overlap_pair(
            a.spatial, a.temporal, spatial, temporal
        )
        totals_s = np.fromiter(
            (f.total() for f in spatial), dtype=np.float64, count=n
        )
        totals_t = np.fromiter(
            (f.total() for f in temporal), dtype=np.float64, count=n
        )
        # cluster features are non-empty with positive severities
        # (AtypicalCluster invariant), so every total is > 0
        own_s_total = a.spatial.total()
        own_t_total = a.temporal.total()
        p1_s = s_own / own_s_total if own_s_total else np.zeros(n)
        p1_t = t_own / own_t_total if own_t_total else np.zeros(n)
        p2_s = s_theirs / totals_s
        p2_t = t_theirs / totals_t
        return 0.5 * (self._g_vec(p1_s, p2_s) + self._g_vec(p1_t, p2_t))

    def matrix(self, clusters: Sequence[AtypicalCluster]) -> np.ndarray:
        """Eq. 2 for every pair of ``clusters`` via the CSR product kernel."""
        return _pairwise_from_vector(clusters, self._g_vec)

    def matrix_and_candidates(
        self, clusters: Sequence[AtypicalCluster], include_window: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairwise Eq. 2 matrix plus the candidate mask in one pass.

        The candidate mask marks pairs with a shared sensor (or, when
        ``include_window`` is set, a shared window) — exactly the pairs the
        inverted indexes of the integrator would generate, read off the
        same overlap numerators the similarity needs anyway.
        """
        n = len(clusters)
        spatial = [c.spatial for c in clusters]
        temporal = [c.temporal for c in clusters]
        totals_s = np.fromiter(
            (f.total() for f in spatial), dtype=np.float64, count=n
        )
        totals_t = np.fromiter(
            (f.total() for f in temporal), dtype=np.float64, count=n
        )
        overlap_s = kernels.pairwise_overlap_matrix(spatial)
        overlap_t = kernels.pairwise_overlap_matrix(temporal)
        ps = _fraction_matrix(totals_s, overlap_s)
        pt = _fraction_matrix(totals_t, overlap_t)
        sim = 0.5 * (self._g_vec(ps, ps.T) + self._g_vec(pt, pt.T))
        candidates = overlap_s > 0.0
        if include_window:
            candidates |= overlap_t > 0.0
        return sim, candidates

    @staticmethod
    def can_be_similar(a: AtypicalCluster, b: AtypicalCluster) -> bool:
        """False only when similarity is guaranteed to be 0.

        With disjoint sensor sets the spatial component is 0 for every
        ``g`` (both fractions are 0); likewise for windows. A positive
        similarity therefore requires a shared sensor or a shared window.
        """
        return a.spatial.intersects(b.spatial) or a.temporal.intersects(
            b.temporal
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterSimilarity(g={self._name!r})"
