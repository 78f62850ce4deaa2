"""Tests for cluster merging (Algorithm 2, Eq. 5-6, Property 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cluster import ClusterIdGenerator
from repro.core.merge import merge_clusters

from tests.conftest import make_cluster

cluster_strategy = st.builds(
    make_cluster,
    spatial=st.dictionaries(st.integers(0, 10), st.floats(0.5, 20), min_size=1, max_size=6),
    temporal=st.none(),
)


class TestMergeClusters:
    def test_eq5_common_sensors_accumulate(self):
        a = make_cluster({1: 2.0, 2: 3.0}, {0: 5.0})
        b = make_cluster({2: 5.0, 3: 7.0}, {0: 12.0})
        merged = merge_clusters(a, b)
        assert merged.spatial[1] == 2.0
        assert merged.spatial[2] == 8.0
        assert merged.spatial[3] == 7.0

    def test_eq6_common_windows_accumulate(self):
        a = make_cluster({1: 5.0}, {10: 2.0, 11: 3.0})
        b = make_cluster({1: 9.0}, {11: 4.0, 12: 5.0})
        merged = merge_clusters(a, b)
        assert merged.temporal[11] == 7.0

    def test_severity_additive(self):
        a = make_cluster({1: 2.0})
        b = make_cluster({2: 5.0})
        assert merge_clusters(a, b).severity() == pytest.approx(7.0)

    def test_fresh_id(self):
        gen = ClusterIdGenerator(1000)
        a = make_cluster({1: 1.0}, cluster_id=1)
        b = make_cluster({2: 1.0}, cluster_id=2)
        merged = merge_clusters(a, b, gen)
        assert merged.cluster_id == 1000

    def test_members_record_provenance(self):
        a = make_cluster({1: 1.0}, cluster_id=1)
        b = make_cluster({2: 1.0}, cluster_id=2)
        assert merge_clusters(a, b).members == (1, 2)

    def test_level_increases(self):
        a = make_cluster({1: 1.0}, level=0)
        b = make_cluster({2: 1.0}, level=2)
        assert merge_clusters(a, b).level == 3

    @given(a=cluster_strategy, b=cluster_strategy)
    def test_property3_commutative(self, a, b):
        ab = merge_clusters(a, b)
        ba = merge_clusters(b, a)
        assert ab.spatial == ba.spatial
        assert ab.temporal == ba.temporal

    @given(a=cluster_strategy, b=cluster_strategy, c=cluster_strategy)
    def test_property3_associative(self, a, b, c):
        left = merge_clusters(merge_clusters(a, b), c)
        right = merge_clusters(a, merge_clusters(b, c))
        assert left.spatial.keys() == right.spatial.keys()
        for key in left.spatial.keys():
            assert left.spatial[key] == pytest.approx(right.spatial[key])
