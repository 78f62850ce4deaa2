"""Tests for cluster serialization and model-size accounting."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import AtypicalEvent
from repro.storage.serialize import (
    clusters_size_bytes,
    decode_cluster,
    decode_clusters,
    encode_cluster,
    encode_clusters,
)

from tests.conftest import make_batch, make_cluster

cluster_strategy = st.builds(
    make_cluster,
    spatial=st.dictionaries(st.integers(0, 500), st.floats(0.5, 300), min_size=1, max_size=8),
    temporal=st.none(),
    level=st.integers(0, 5),
    members=st.lists(st.integers(0, 1000), max_size=4).map(tuple),
)


class TestSingleCluster:
    def test_roundtrip(self):
        original = make_cluster(
            {1: 182.0, 2: 97.0}, {97: 200.0, 98: 79.0}, cluster_id=7, level=2,
            members=(3, 4),
        )
        decoded, _ = decode_cluster(encode_cluster(original))
        assert decoded.cluster_id == 7
        assert decoded.level == 2
        assert decoded.members == (3, 4)
        assert decoded.spatial == original.spatial
        assert decoded.temporal == original.temporal

    def test_offset_returned(self):
        blob = encode_cluster(make_cluster({1: 1.0}))
        _, offset = decode_cluster(blob)
        assert offset == len(blob)

    @given(cluster=cluster_strategy)
    def test_roundtrip_random(self, cluster):
        decoded, _ = decode_cluster(encode_cluster(cluster))
        assert decoded.spatial == cluster.spatial
        assert decoded.temporal == cluster.temporal
        assert decoded.members == cluster.members


class TestCollections:
    def test_roundtrip_many(self):
        clusters = [make_cluster({i: 1.0 + i}) for i in range(5)]
        decoded = decode_clusters(encode_clusters(clusters))
        assert len(decoded) == 5
        assert [c.spatial for c in decoded] == [c.spatial for c in clusters]

    def test_empty_collection(self):
        assert decode_clusters(encode_clusters([])) == []

    def test_size_accounting_matches_bytes(self):
        clusters = [
            make_cluster({1: 2.0, 2: 3.0}, {5: 5.0}, members=(9,)),
            make_cluster({4: 1.0}),
        ]
        assert clusters_size_bytes(clusters) == len(encode_clusters(clusters))

    @given(clusters=st.lists(cluster_strategy, max_size=6))
    def test_size_accounting_random(self, clusters):
        assert clusters_size_bytes(clusters) == len(encode_clusters(clusters))


class TestEventSize:
    def test_cluster_model_smaller_than_events(self):
        # the AC model stores one entry per sensor/window, not per record —
        # repeat readings on the same sensor collapse (Fig. 16's point)
        records = [(1, w, 4.0) for w in range(100)]
        event = AtypicalEvent(make_batch(records))
        cluster = event.to_micro_cluster(windows_per_day=10)
        # AE stores every member record, 16 bytes each (Fig. 16)
        assert clusters_size_bytes([cluster]) < 16 * len(records)
