"""Tests for cluster integration (Algorithm 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterIdGenerator
from repro.core.integration import ClusterIntegrator
from repro.core.similarity import ClusterSimilarity

from tests.conftest import integrate, make_cluster


def chainable(offset=0):
    """Three clusters on shared sensors with overlapping windows."""
    return [
        make_cluster({1 + offset: 10.0, 2 + offset: 5.0}, {100: 10.0, 101: 5.0}),
        make_cluster({1 + offset: 9.0, 2 + offset: 6.0}, {100: 9.0, 101: 6.0}),
        make_cluster({1 + offset: 8.0, 2 + offset: 7.0}, {101: 8.0, 102: 7.0}),
    ]


class TestConstruction:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ClusterIntegrator(threshold=1.5)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            ClusterIntegrator(method="quantum")

    def test_accepts_similarity_object(self):
        integrator = ClusterIntegrator(similarity=ClusterSimilarity("max"))
        assert integrator.similarity.name == "max"


class TestBasicBehaviour:
    def test_empty_input(self):
        assert integrate([]).clusters == []

    def test_single_input(self):
        c = make_cluster({1: 1.0})
        assert integrate([c]).clusters == [c]

    def test_similar_clusters_merge(self):
        result = integrate(chainable(), threshold=0.5)
        assert len(result.clusters) == 1
        assert result.merges == 2

    def test_disjoint_clusters_stay(self):
        clusters = [make_cluster({i: 5.0}, {i * 10: 5.0}) for i in range(4)]
        result = integrate(clusters, threshold=0.5)
        assert len(result.clusters) == 4
        assert result.merges == 0

    def test_severity_conserved(self):
        clusters = chainable() + [make_cluster({9: 3.0}, {50: 3.0})]
        total = sum(c.severity() for c in clusters)
        result = integrate(clusters)
        assert sum(c.severity() for c in result.clusters) == pytest.approx(total)

    def test_results_sorted_by_severity(self):
        clusters = chainable() + [make_cluster({9: 1.0}, {50: 1.0})]
        result = integrate(clusters)
        severities = [c.severity() for c in result.clusters]
        assert severities == sorted(severities, reverse=True)

    def test_created_contains_merge_products(self):
        result = integrate(chainable())
        assert len(result.created) == result.merges
        assert result.clusters[0].cluster_id in result.created

    def test_duplicate_ids_rejected(self):
        a = make_cluster({1: 1.0}, cluster_id=5)
        b = make_cluster({2: 1.0}, cluster_id=5)
        with pytest.raises(ValueError):
            integrate([a, b])

    def test_threshold_one_merges_nothing_distinct(self):
        result = integrate(chainable(), threshold=1.0)
        assert result.merges == 0


class TestFixpoint:
    """Algorithm 3 terminates when no pair exceeds delta_sim."""

    @settings(max_examples=30, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.dictionaries(st.integers(0, 6), st.floats(0.5, 10), min_size=1, max_size=4),
                st.dictionaries(st.integers(0, 6), st.floats(0.5, 10), min_size=1, max_size=4),
            ),
            min_size=0,
            max_size=8,
        ),
        threshold=st.sampled_from([0.3, 0.5, 0.7]),
        method=st.sampled_from(["naive", "indexed"]),
    )
    def test_no_pair_above_threshold_remains(self, specs, threshold, method):
        clusters = [
            make_cluster(sf, {k: v * sum(sf.values()) / sum(tf.values()) for k, v in tf.items()})
            for sf, tf in specs
        ]
        sim = ClusterSimilarity("avg")
        result = integrate(clusters, threshold=threshold, method=method)
        final = result.clusters
        for i in range(len(final)):
            for j in range(i + 1, len(final)):
                assert sim(final[i], final[j]) <= threshold + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        specs=st.lists(
            st.dictionaries(st.integers(0, 6), st.floats(0.5, 10), min_size=1, max_size=4),
            min_size=0,
            max_size=8,
        ),
        threshold=st.sampled_from([0.4, 0.5, 0.6]),
    )
    def test_naive_and_indexed_reach_same_cluster_count(self, specs, threshold):
        def build():
            gen = ClusterIdGenerator()
            return [
                make_cluster(sf, cluster_id=gen.next_id()) for sf in specs
            ]

        naive = integrate(build(), threshold=threshold, method="naive")
        indexed = integrate(build(), threshold=threshold, method="indexed")
        # hard clustering is order-dependent in general (Sec. V-D), but the
        # total severity is conserved and the fixpoint sizes agree on these
        # single-window inputs
        assert sum(c.severity() for c in naive.clusters) == pytest.approx(
            sum(c.severity() for c in indexed.clusters)
        )

    def test_deterministic_across_runs(self):
        def build():
            gen = ClusterIdGenerator()
            return [
                make_cluster({1: 10.0, 2: 5.0}, {0: 15.0}, cluster_id=gen.next_id()),
                make_cluster({1: 9.0, 3: 6.0}, {0: 15.0}, cluster_id=gen.next_id()),
                make_cluster({2: 8.0, 3: 7.0}, {0: 15.0}, cluster_id=gen.next_id()),
                make_cluster({8: 1.0}, {0: 1.0}, cluster_id=gen.next_id()),
            ]

        first = integrate(build(), threshold=0.4)
        second = integrate(build(), threshold=0.4)
        assert [c.spatial for c in first.clusters] == [
            c.spatial for c in second.clusters
        ]


class TestWindowCandidateOptimization:
    def test_window_only_overlap_merges_below_half(self):
        # sensor-disjoint but window-identical clusters merge only when
        # delta_sim < 0.5
        a = make_cluster({1: 10.0}, {0: 10.0})
        b = make_cluster({2: 10.0}, {0: 10.0})
        low = integrate([a, b], threshold=0.4)
        assert low.merges == 1

    def test_window_only_overlap_never_merges_at_half(self):
        a = make_cluster({1: 10.0}, {0: 10.0})
        b = make_cluster({2: 10.0}, {0: 10.0})
        result = integrate([a, b], threshold=0.5)
        assert result.merges == 0

    def test_comparisons_counted(self):
        result = integrate(chainable(), threshold=0.5)
        assert result.comparisons > 0
