"""Vectorized similarity/integration kernel vs the dict-loop scalar path.

Times three stages on a Fig. 15-sized synthetic workload (a few hundred
micro-clusters with hotspot locality) against the dict-loop oracles in
``tests/reference/scalar.py``:

* the all-pairs Eq. 2 similarity kernel (one CSR sparse product vs a
  quadratic dict loop),
* end-to-end indexed Algorithm 3 (batch scoring + similarity cache vs
  per-pop dict loops),
* the naive Algorithm 3 fixpoint (incremental best-pair heap vs a
  quadratic re-scan per merge).

Writes ``benchmarks/results/integration_kernel.txt`` and asserts the hard
properties: the kernel is exact, the kernel and the heap are at least 3x
faster, and both engines produce byte-identical macro-cluster sets.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit_table
from repro.core.integration import ClusterIntegrator
from repro.core.similarity import BALANCE_FUNCTIONS, pairwise_similarity
from tests.reference.scalar import (
    as_dicts,
    dict_similarity,
    scalar_indexed_integrate,
    scalar_rescan_naive_integrate,
    synthetic_micro_clusters,
)

NUM_CLUSTERS, SEED, REPEATS = 400, 7, 3
NAIVE_SUBSET = 150  # the re-scan is O(merges * n^2), so it runs on a slice


def _best_of(fn, repeats=REPEATS):
    """(fastest wall time, last result) over ``repeats`` runs of ``fn``."""
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _signature(clusters):
    """Order-independent, byte-exact identity of a macro-cluster set."""
    return sorted(
        tuple(
            a.tobytes()
            for f in (c.spatial, c.temporal)
            for a in (f.key_array, f.value_array)
        )
        for c in clusters
    )


def test_integration_kernel_benchmark():
    clusters = synthetic_micro_clusters(num_clusters=NUM_CLUSTERS, seed=SEED)
    subset = clusters[:NAIVE_SUBSET]
    g = BALANCE_FUNCTIONS["avg"]
    dicts = [as_dicts(c) for c in clusters]

    def dict_all_pairs():
        out = np.zeros((len(dicts), len(dicts)))
        for i in range(len(dicts)):
            for j in range(i + 1, len(dicts)):
                out[i, j] = dict_similarity(dicts[i], dicts[j], g)
        return out

    dict_s, dict_matrix = _best_of(dict_all_pairs)
    vec_s, vec_matrix = _best_of(lambda: pairwise_similarity(clusters, "avg"))
    upper = np.triu_indices(len(clusters), k=1)
    kernel_error = float(np.max(np.abs(dict_matrix[upper] - vec_matrix[upper])))

    scalar_s, (scalar_clusters, _, _) = _best_of(
        lambda: scalar_indexed_integrate(clusters)
    )
    indexed = ClusterIntegrator(0.5, "avg", "indexed")
    indexed_s, indexed_result = _best_of(lambda: indexed.integrate(clusters))

    rescan_s, (rescan_clusters, _, rescan_comparisons) = _best_of(
        lambda: scalar_rescan_naive_integrate(subset), repeats=1
    )
    heap = ClusterIntegrator(0.5, "avg", "naive")
    heap_s, heap_result = _best_of(lambda: heap.integrate(subset))

    stages = [
        ("similarity (all pairs)", dict_s, vec_s),
        ("integration (indexed)", scalar_s, indexed_s),
        (f"naive fixpoint (n={len(subset)})", rescan_s, heap_s),
    ]
    emit_table(
        "integration_kernel",
        "Vectorized kernels vs dict-loop scalar path "
        f"({NUM_CLUSTERS} clusters, seed {SEED})",
        ("stage", "dict-loop (s)", "vectorized (s)", "speedup"),
        [(name, f"{s:.3f}", f"{v:.3f}", f"{s / v:.1f}x") for name, s, v in stages],
    )

    assert kernel_error == 0.0
    assert dict_s / vec_s >= 3.0
    assert rescan_s / heap_s >= 3.0
    assert _signature(indexed_result.clusters) == _signature(scalar_clusters)
    assert _signature(heap_result.clusters) == _signature(rescan_clusters)
    # the index candidate strategy evaluates fewer pairs than the
    # incremental-heap naive path, which evaluates fewer than the re-scan
    assert indexed_result.comparisons < rescan_comparisons
    assert heap_result.comparisons < rescan_comparisons
