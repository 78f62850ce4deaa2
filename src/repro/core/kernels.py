"""Array kernels behind the similarity/integration fast path.

Two access patterns dominate macro-cluster construction (Algorithm 3):

* **one-vs-many** — a cluster popped from the integration queue is scored
  against its whole candidate set. :func:`batch_overlap` concatenates the
  candidates' key/severity arrays once and resolves all Eq. 3/4 overlap
  numerators with a single ``searchsorted`` + two ``bincount`` calls.
* **all-pairs** — the naive Algorithm 3 baseline and level-wide forest
  materialization need every pairwise overlap. :func:`pairwise_overlap_matrix`
  packs all features into one CSR matrix ``X`` (rows = clusters, columns =
  the key universe, values = severities) and obtains every numerator from
  the single sparse product ``X @ B.T`` where ``B`` is the binary pattern
  of ``X``.

Both kernels accumulate severities in ascending-key order, the same order
the scalar :meth:`~repro.core.features.SeverityFeature.overlap` uses, so
all three paths agree bit for bit on the named balance functions (the test
suite checks 1e-12 agreement and the integration tests check that the
resulting macro-cluster sets are identical).

SciPy is optional: when ``scipy.sparse`` is unavailable the all-pairs
kernel falls back to one :func:`batch_overlap` call per row.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly on import
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy is a declared dependency
    _sparse = None

from repro.core.features import SeverityFeature
from repro.obs import runtime as _obs

__all__ = [
    "batch_overlap",
    "batch_overlap_pair",
    "pack_csr",
    "pairwise_overlap_matrix",
]

# Shifts the second key universe of the fused kernel into a disjoint range.
# Keys are sensor ids / window indexes (int32-ranged in practice, enforced
# by the serializer), so they sit far below 2^62 and the shift cannot
# collide or overflow int64.
_FUSE_OFFSET = np.int64(1) << 62


def batch_overlap(
    feature: SeverityFeature, others: Sequence[SeverityFeature]
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 3/4 overlap numerators of one feature against many.

    Returns ``(own, theirs)`` where ``own[i] = feature.overlap(others[i])``
    and ``theirs[i] = others[i].overlap(feature)``.
    """
    n = len(others)
    if _obs.enabled():
        _obs.counter("kernels.batch_calls").inc()
        _obs.histogram("kernels.batch_size").observe(n)
    own = np.zeros(n, dtype=np.float64)
    theirs = np.zeros(n, dtype=np.float64)
    keys = feature.key_array
    if n == 0 or keys.size == 0:
        return own, theirs
    lens = np.fromiter((len(o) for o in others), dtype=np.int64, count=n)
    if int(lens.sum()) == 0:
        return own, theirs
    cat_keys = np.concatenate([o.key_array for o in others])
    cat_vals = np.concatenate([o.value_array for o in others])
    rows = np.repeat(np.arange(n), lens)
    pos = np.searchsorted(keys, cat_keys)
    np.minimum(pos, keys.size - 1, out=pos)
    mask = keys[pos] == cat_keys
    if not mask.any():
        return own, theirs
    rows_hit = rows[mask]
    # bincount accumulates sequentially in traversal order, which is
    # ascending-key within each row — the scalar overlap() convention
    theirs = np.bincount(rows_hit, weights=cat_vals[mask], minlength=n)
    own = np.bincount(
        rows_hit, weights=feature.value_array[pos[mask]], minlength=n
    )
    return own, theirs


def batch_overlap_pair(
    first: SeverityFeature,
    second: SeverityFeature,
    others_first: Sequence[SeverityFeature],
    others_second: Sequence[SeverityFeature],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused one-vs-many overlap over two key universes at once.

    Equivalent to ``batch_overlap(first, others_first)`` followed by
    ``batch_overlap(second, others_second)`` — in the integrator that is
    the spatial and temporal halves of Eq. 2 — but pays the fixed numpy
    call overhead once: the second universe's keys are shifted into a
    disjoint range and each candidate contributes two rows of the same
    ``searchsorted`` + ``bincount`` pass. Per-row accumulation order is
    unchanged (ascending keys), so results stay bit-identical to the
    unfused kernels.

    Returns ``(own_first, theirs_first, own_second, theirs_second)``.
    """
    n = len(others_first)
    if len(others_second) != n:
        raise ValueError("candidate sequences must have equal length")
    if _obs.enabled():
        _obs.counter("kernels.batch_calls").inc()
        _obs.histogram("kernels.batch_size").observe(n)
    zeros = np.zeros(n, dtype=np.float64)
    if n == 0:
        return zeros, zeros.copy(), zeros.copy(), zeros.copy()
    keys_a = first.key_array
    keys_b = second.key_array
    if keys_a.size == 0 and keys_b.size == 0:
        return zeros, zeros.copy(), zeros.copy(), zeros.copy()
    ref_keys = np.concatenate((keys_a, keys_b + _FUSE_OFFSET))
    ref_vals = np.concatenate((first.value_array, second.value_array))

    key_blocks = [o.key_array for o in others_first]
    key_blocks += [o.key_array for o in others_second]
    val_blocks = [o.value_array for o in others_first]
    val_blocks += [o.value_array for o in others_second]
    lens = np.fromiter(
        (block.size for block in key_blocks), dtype=np.int64, count=2 * n
    )
    cat_keys = np.concatenate(key_blocks)
    if cat_keys.size == 0:
        return zeros, zeros.copy(), zeros.copy(), zeros.copy()
    first_block = int(lens[:n].sum())
    cat_keys[first_block:] += _FUSE_OFFSET  # one shift for the whole block
    cat_vals = np.concatenate(val_blocks)
    rows = np.repeat(np.arange(2 * n), lens)
    pos = np.searchsorted(ref_keys, cat_keys)
    np.minimum(pos, ref_keys.size - 1, out=pos)
    mask = ref_keys[pos] == cat_keys
    if not mask.any():
        return zeros, zeros.copy(), zeros.copy(), zeros.copy()
    rows_hit = rows[mask]
    theirs = np.bincount(rows_hit, weights=cat_vals[mask], minlength=2 * n)
    own = np.bincount(rows_hit, weights=ref_vals[pos[mask]], minlength=2 * n)
    return own[:n], theirs[:n], own[n:], theirs[n:]


def pack_csr(
    features: Sequence[SeverityFeature],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Pack many features into one CSR layout.

    Returns ``(indptr, cols, data, totals, num_cols)``: row ``i`` of the
    matrix holds feature ``i``'s severities; columns enumerate the union of
    all keys in ascending order (``np.unique`` remap). Within each row the
    column indices are ascending because feature key arrays are sorted.
    """
    n = len(features)
    lens = np.fromiter((len(f) for f in features), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    if n and int(lens.sum()):
        all_keys = np.concatenate([f.key_array for f in features])
        data = np.concatenate([f.value_array for f in features])
    else:
        all_keys = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    universe, cols = np.unique(all_keys, return_inverse=True)
    totals = np.fromiter((f.total() for f in features), dtype=np.float64, count=n)
    return indptr, cols.astype(np.int64, copy=False), data, totals, universe.size


def pairwise_overlap_matrix(features: Sequence[SeverityFeature]) -> np.ndarray:
    """Dense matrix ``N`` with ``N[i, j] = features[i].overlap(features[j])``.

    One sparse product when SciPy is available: ``N = X @ B.T`` with ``X``
    the packed severity CSR and ``B`` its binary pattern — row ``i`` dotted
    with pattern row ``j`` sums exactly ``i``'s severities on the shared
    keys. Falls back to a per-row :func:`batch_overlap` sweep otherwise.
    """
    n = len(features)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if _obs.enabled():
        _obs.counter("kernels.matrix_calls").inc()
        _obs.histogram("kernels.matrix_size").observe(n)
        if _sparse is None:
            _obs.counter("kernels.scipy_fallbacks").inc()
    if _sparse is not None:
        indptr, cols, data, _totals, num_cols = pack_csr(features)
        shape = (n, max(num_cols, 1))
        x = _sparse.csr_matrix((data, cols, indptr), shape=shape)
        pattern = _sparse.csr_matrix(
            (np.ones_like(data), cols, indptr), shape=shape
        )
        return np.asarray((x @ pattern.T).todense(), dtype=np.float64)
    out = np.zeros((n, n), dtype=np.float64)
    for i, feature in enumerate(features):
        out[i], _ = batch_overlap(feature, features)
    return out
