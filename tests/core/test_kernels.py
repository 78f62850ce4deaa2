"""Property tests for the array kernels behind the similarity fast path.

The vectorized kernels (:mod:`repro.core.kernels`) and the scalar Eq. 2-4
path promise more than closeness: all severity sums run in ascending-key
order, so scalar, one-vs-many and all-pairs results are *bit-identical*.
These tests pin both contracts — 1e-12 agreement under adversarial
hypothesis inputs for every balance function, and exact equality between
the kernel variants — plus the algebraic properties (commutative /
associative merge, Properties 2-3) under the array representation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.cluster import AtypicalCluster
from repro.core.features import SpatialFeature, TemporalFeature
from repro.core.integration import SimilarityCache
from repro.core.similarity import (
    BALANCE_FUNCTIONS,
    ClusterSimilarity,
    pairwise_similarity,
    similarity,
)
from tests.conftest import integrate
from tests.reference.scalar import (
    as_dicts,
    dict_similarity,
    scalar_indexed_integrate,
    scalar_rescan_naive_integrate,
    synthetic_micro_clusters,
)

severities = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
feature_dicts = st.dictionaries(
    st.integers(0, 40), severities, min_size=1, max_size=15
)
window_dicts = st.dictionaries(
    st.integers(0, 25), severities, min_size=1, max_size=10
)


def make_cluster(cid: int, spatial: dict, temporal: dict) -> AtypicalCluster:
    # rescale the temporal severities so both features agree on the total
    # (the Definition 4 invariant AtypicalCluster enforces)
    sf = SpatialFeature(spatial)
    scale = sf.total() / math.fsum(temporal.values())
    tf = TemporalFeature({k: v * scale for k, v in temporal.items()})
    return AtypicalCluster(cluster_id=cid, spatial=sf, temporal=tf)


cluster_pairs = st.tuples(
    feature_dicts, window_dicts, feature_dicts, window_dicts
)
cluster_lists = st.lists(
    st.tuples(feature_dicts, window_dicts), min_size=2, max_size=8
)


# ----------------------------------------------------------------------
# Eq. 3/4 overlap: scalar vs reference vs kernels
# ----------------------------------------------------------------------
class TestOverlap:
    @given(a=feature_dicts, b=feature_dicts)
    def test_overlap_matches_ordered_reference(self, a, b):
        fa, fb = SpatialFeature(a), SpatialFeature(b)
        # the reference accumulates in ascending-key order, the documented
        # convention of every kernel
        expected = 0.0
        for key in sorted(a):
            if key in b:
                expected += a[key]
        assert fa.overlap(fb) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(a=feature_dicts, others=st.lists(feature_dicts, min_size=0, max_size=6))
    def test_batch_overlap_bit_identical_to_scalar(self, a, others):
        fa = SpatialFeature(a)
        fos = [SpatialFeature(o) for o in others]
        own, theirs = kernels.batch_overlap(fa, fos)
        assert own.tolist() == [fa.overlap(fo) for fo in fos]
        assert theirs.tolist() == [fo.overlap(fa) for fo in fos]

    @given(pair=cluster_pairs, others=cluster_lists)
    def test_fused_kernel_bit_identical_to_unfused(self, pair, others):
        a_s, a_t, _, _ = pair
        first, second = SpatialFeature(a_s), TemporalFeature(a_t)
        others_first = [SpatialFeature(s) for s, _ in others]
        others_second = [TemporalFeature(t) for _, t in others]
        fused = kernels.batch_overlap_pair(
            first, second, others_first, others_second
        )
        own_f, theirs_f = kernels.batch_overlap(first, others_first)
        own_s, theirs_s = kernels.batch_overlap(second, others_second)
        assert fused[0].tolist() == own_f.tolist()
        assert fused[1].tolist() == theirs_f.tolist()
        assert fused[2].tolist() == own_s.tolist()
        assert fused[3].tolist() == theirs_s.tolist()

    @given(features=st.lists(feature_dicts, min_size=1, max_size=6))
    def test_pairwise_matrix_bit_identical_to_scalar(self, features):
        fs = [SpatialFeature(f) for f in features]
        matrix = kernels.pairwise_overlap_matrix(fs)
        for i, fi in enumerate(fs):
            for j, fj in enumerate(fs):
                assert matrix[i, j] == fi.overlap(fj)

    def test_pairwise_matrix_fallback_matches_sparse(self, monkeypatch):
        fs = [c.spatial for c in synthetic_micro_clusters(num_clusters=40, seed=13)]
        with_scipy = kernels.pairwise_overlap_matrix(fs)
        monkeypatch.setattr(kernels, "_sparse", None)
        without_scipy = kernels.pairwise_overlap_matrix(fs)
        assert with_scipy.tolist() == without_scipy.tolist()

    @given(a=feature_dicts, b=feature_dicts)
    def test_intersects_matches_set_reference(self, a, b):
        fa, fb = SpatialFeature(a), SpatialFeature(b)
        assert fa.intersects(fb) == bool(a.keys() & b.keys())


# ----------------------------------------------------------------------
# Eq. 2 similarity: vectorized vs scalar, all five balance functions
# ----------------------------------------------------------------------
class TestSimilarityAgreement:
    @settings(max_examples=40)
    @given(clusters=cluster_lists)
    @pytest.mark.parametrize("balance", sorted(BALANCE_FUNCTIONS))
    def test_pairwise_similarity_within_1e12(self, clusters, balance):
        built = [make_cluster(i, s, t) for i, (s, t) in enumerate(clusters)]
        g = BALANCE_FUNCTIONS[balance]
        matrix = pairwise_similarity(built, balance)
        for i, a in enumerate(built):
            for j, b in enumerate(built):
                if i == j:
                    continue
                assert matrix[i, j] == pytest.approx(
                    similarity(a, b, g), rel=1e-12, abs=1e-12
                )

    @settings(max_examples=40)
    @given(pair=cluster_pairs, others=cluster_lists)
    @pytest.mark.parametrize("balance", sorted(BALANCE_FUNCTIONS))
    def test_batch_within_1e12(self, pair, others, balance):
        a = make_cluster(1000, pair[0], pair[1])
        built = [make_cluster(i, s, t) for i, (s, t) in enumerate(others)]
        measure = ClusterSimilarity(balance)
        values = measure.batch(a, built)
        for value, other in zip(values.tolist(), built):
            assert value == pytest.approx(
                measure(a, other), rel=1e-12, abs=1e-12
            )

    def test_kernels_bit_identical_on_workload(self):
        """On a realistic workload the three paths agree *exactly*."""
        clusters = synthetic_micro_clusters(num_clusters=60, seed=11)
        for balance in sorted(BALANCE_FUNCTIONS):
            measure = ClusterSimilarity(balance)
            matrix = measure.matrix(clusters)
            for i, a in enumerate(clusters):
                batch = measure.batch(a, clusters)
                scalar = [measure(a, b) for b in clusters]
                assert batch.tolist() == scalar
                assert matrix[i].tolist() == scalar

    @pytest.mark.parametrize("balance", sorted(BALANCE_FUNCTIONS))
    def test_all_pairs_kernel_equals_dict_oracle(self, balance):
        """The one-CSR-product all-pairs kernel has max abs error 0
        against the dict-loop Eq. 2 oracle."""
        clusters = synthetic_micro_clusters(num_clusters=80, seed=7)
        g = BALANCE_FUNCTIONS[balance]
        dicts = [as_dicts(c) for c in clusters]
        matrix = pairwise_similarity(clusters, balance)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                assert matrix[i, j] == dict_similarity(dicts[i], dicts[j], g)

    def test_matrix_and_candidates_mask(self):
        clusters = synthetic_micro_clusters(num_clusters=40, seed=3)
        measure = ClusterSimilarity("avg")
        sim, mask = measure.matrix_and_candidates(clusters, True)
        assert sim.tolist() == measure.matrix(clusters).tolist()
        for i, a in enumerate(clusters):
            for j, b in enumerate(clusters):
                if i != j:
                    assert mask[i, j] == ClusterSimilarity.can_be_similar(a, b)


# ----------------------------------------------------------------------
# Eq. 5/6 merge algebra under the array representation (Properties 2-3)
# ----------------------------------------------------------------------
class TestMergeAlgebra:
    @given(a=feature_dicts, b=feature_dicts)
    def test_merge_commutative(self, a, b):
        fa, fb = SpatialFeature(a), SpatialFeature(b)
        ab, ba = fa.merge(fb), fb.merge(fa)
        assert ab.key_array.tolist() == ba.key_array.tolist()
        assert ab.value_array.tolist() == ba.value_array.tolist()

    @given(a=feature_dicts, b=feature_dicts, c=feature_dicts)
    def test_merge_associative(self, a, b, c):
        fa, fb, fc = SpatialFeature(a), SpatialFeature(b), SpatialFeature(c)
        left = fa.merge(fb).merge(fc)
        right = fa.merge(fb.merge(fc))
        assert left.key_array.tolist() == right.key_array.tolist()
        for lv, rv in zip(left.value_array, right.value_array):
            assert lv == pytest.approx(rv, rel=1e-12)

    @given(features=st.lists(feature_dicts, min_size=1, max_size=6))
    def test_merge_all_matches_left_fold(self, features):
        # k-way reduceat may group a segment's additions differently than a
        # strict left fold, so 3+ way merges agree to 1e-12, not bitwise;
        # two-way merges (all the engine performs) are exact — see below
        built = [SpatialFeature(f) for f in features]
        merged = SpatialFeature.merge_all(built)
        folded = built[0]
        for nxt in built[1:]:
            folded = folded.merge(nxt)
        assert merged.key_array.tolist() == folded.key_array.tolist()
        for mv, fv in zip(merged.value_array, folded.value_array):
            assert mv == pytest.approx(fv, rel=1e-12)

    @given(a=feature_dicts, b=feature_dicts)
    def test_two_way_merge_all_bit_identical_to_merge(self, a, b):
        fa, fb = SpatialFeature(a), SpatialFeature(b)
        merged = SpatialFeature.merge_all([fa, fb])
        pairwise = fa.merge(fb)
        assert merged.key_array.tolist() == pairwise.key_array.tolist()
        assert merged.value_array.tolist() == pairwise.value_array.tolist()

    @given(a=feature_dicts, b=feature_dicts)
    def test_merge_matches_dict_reference(self, a, b):
        fa, fb = SpatialFeature(a), SpatialFeature(b)
        merged = fa.merge(fb)
        reference = dict(a)
        for key, value in b.items():
            reference[key] = reference.get(key, 0.0) + value
        assert merged.key_array.tolist() == sorted(reference)
        for key, value in zip(merged.key_array.tolist(), merged.value_array):
            assert value == pytest.approx(reference[key], rel=1e-12)
        assert merged.total() == pytest.approx(
            math.fsum(reference.values()), rel=1e-12
        )


# ----------------------------------------------------------------------
# Integration engine equivalence (byte-identical macro-cluster sets)
# ----------------------------------------------------------------------
def _byte_signature(clusters) -> set:
    return {
        (
            c.spatial.key_array.tobytes(),
            c.spatial.value_array.tobytes(),
            c.temporal.key_array.tobytes(),
            c.temporal.value_array.tobytes(),
        )
        for c in clusters
    }


class TestIntegrationEquivalence:
    def test_indexed_engine_byte_identical_to_scalar_reimplementation(self):
        clusters = synthetic_micro_clusters(num_clusters=120, seed=5)
        scalar_clusters, scalar_merges, _ = scalar_indexed_integrate(clusters)
        result = integrate(clusters, method="indexed")
        assert result.merges == scalar_merges
        assert _byte_signature(result.clusters) == _byte_signature(
            scalar_clusters
        )

    def test_heap_naive_byte_identical_to_rescan(self):
        clusters = synthetic_micro_clusters(num_clusters=80, seed=9)
        rescan_clusters, rescan_merges, _ = scalar_rescan_naive_integrate(
            clusters
        )
        result = integrate(clusters, method="naive")
        assert result.merges == rescan_merges
        assert _byte_signature(result.clusters) == _byte_signature(
            rescan_clusters
        )

    def test_shared_cache_reuses_pair_scores(self):
        clusters = synthetic_micro_clusters(num_clusters=60, seed=2)
        cache = SimilarityCache()
        first = integrate(clusters, method="indexed", cache=cache)
        hits_before = cache.hits
        second = integrate(clusters, method="indexed", cache=cache)
        # all original-input pair scores come back from the shared cache
        assert cache.hits > hits_before
        assert _byte_signature(first.clusters) == _byte_signature(
            second.clusters
        )
        assert second.comparisons < first.comparisons
