"""Tests for the atypical cluster model."""

import pytest

from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.features import SpatialFeature, TemporalFeature

from tests.conftest import make_cluster


class TestInvariants:
    def test_sf_tf_totals_must_match(self):
        with pytest.raises(ValueError):
            AtypicalCluster(
                cluster_id=0,
                spatial=SpatialFeature({1: 5.0}),
                temporal=TemporalFeature({0: 6.0}),
            )

    def test_rejects_empty_features(self):
        with pytest.raises(ValueError):
            AtypicalCluster(0, SpatialFeature(), TemporalFeature({0: 1.0}))

    def test_tolerates_floating_point_noise(self):
        cluster = AtypicalCluster(
            0,
            SpatialFeature({1: 1.0 / 3 * 3}),
            TemporalFeature({0: 1.0}),
        )
        assert cluster.severity() == pytest.approx(1.0)

    def test_severity_equals_both_totals(self):
        c = make_cluster({1: 3.0, 2: 4.0}, {10: 2.0, 11: 5.0})
        assert c.severity() == pytest.approx(c.spatial.total())
        assert c.severity() == pytest.approx(c.temporal.total())


class TestAccessors:
    def test_sensor_ids(self):
        c = make_cluster({1: 3.0, 5: 4.0}, {0: 7.0})
        assert c.sensor_ids == frozenset({1, 5})

    def test_windows(self):
        c = make_cluster({1: 7.0}, {10: 3.0, 12: 4.0})
        assert c.windows == frozenset({10, 12})

    def test_start_end_window(self):
        c = make_cluster({1: 7.0}, {10: 3.0, 12: 4.0})
        assert c.start_window() == 10

    def test_most_serious_sensor_answers_example_1(self):
        # "on which road segment is the congestion most serious?"
        c = make_cluster({1: 182.0, 2: 97.0, 3: 33.0}, {0: 312.0})
        assert c.most_serious_sensor() == (1, 182.0)

    def test_peak_window(self):
        c = make_cluster({1: 10.0}, {5: 4.0, 6: 6.0})
        assert c.peak_window() == (6, 6.0)

    def test_is_micro(self):
        assert make_cluster({1: 1.0}).is_micro
        assert not make_cluster({1: 1.0}, members=(1, 2)).is_micro

    def test_intersects_sensors(self):
        c = make_cluster({1: 1.0, 2: 1.0})
        assert c.intersects_sensors([2, 9])
        assert not c.intersects_sensors([8, 9])


class TestIdGenerator:
    def test_monotonic(self):
        gen = ClusterIdGenerator()
        assert gen.next_id() < gen.next_id()

    def test_start_offset(self):
        assert ClusterIdGenerator(100).next_id() == 100

    def test_micro_constructor_uses_generator(self):
        gen = ClusterIdGenerator(50)
        c = AtypicalCluster.micro(
            SpatialFeature({1: 2.0}), TemporalFeature({0: 2.0}), gen
        )
        assert c.cluster_id == 50
        assert c.level == 0

    def test_thread_safety_smoke(self):
        import threading

        gen = ClusterIdGenerator()
        seen = []

        def take():
            for _ in range(200):
                seen.append(gen.next_id())

        threads = [threading.Thread(target=take) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800
