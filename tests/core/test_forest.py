"""Tests for the atypical forest (Sec. III-C, Fig. 10)."""

import pytest

from repro.core.cluster import ClusterIdGenerator
from repro.core.forest import AtypicalForest
from repro.core.integration import ClusterIntegrator
from repro.spatial.regions import QueryRegion
from repro.temporal.hierarchy import Calendar

from tests.conftest import make_cluster


def small_calendar():
    return Calendar(month_lengths=(14, 14), month_names=("m1", "m2"))


def recurring_day(day, gen, sensor=1, windows=(100, 101)):
    """A daily micro-cluster of a recurring event (shared sensors/windows)."""
    return make_cluster(
        {sensor: 6.0, sensor + 1: 4.0},
        {windows[0]: 6.0, windows[1]: 4.0},
        cluster_id=gen.next_id(),
    )


class TestAddAndRetrieve:
    def test_add_day_and_get(self):
        forest = AtypicalForest(small_calendar())
        gen = forest.ids
        clusters = [recurring_day(0, gen)]
        forest.add_day(0, clusters)
        assert forest.day_clusters(0) == clusters

    def test_duplicate_day_rejected(self):
        forest = AtypicalForest(small_calendar())
        forest.add_day(0, [recurring_day(0, forest.ids)])
        with pytest.raises(ValueError):
            forest.add_day(0, [])

    def test_day_beyond_calendar_rejected_before_storing(self):
        forest = AtypicalForest(small_calendar())
        forest.add_day(0, [])
        num_days = forest.calendar.num_days
        with pytest.raises(ValueError, match="out of range"):
            forest.add_day(num_days, [])
        assert forest.days == [0]
        # the rejected day left nothing behind that would block a retry
        with pytest.raises(ValueError, match="out of range"):
            forest.add_day(num_days, [])

    def test_missing_day_is_empty(self):
        forest = AtypicalForest(small_calendar())
        assert forest.day_clusters(5) == []

    def test_micro_clusters_over_days(self):
        forest = AtypicalForest(small_calendar())
        for day in range(3):
            forest.add_day(day, [recurring_day(day, forest.ids)])
        assert len(forest.micro_clusters(range(3))) == 3

    def test_region_filter(self):
        forest = AtypicalForest(small_calendar())
        inside = recurring_day(0, forest.ids, sensor=1)
        outside = recurring_day(0, forest.ids, sensor=50)
        forest.add_day(0, [inside, outside])
        region = QueryRegion("r", [1, 2])
        assert forest.micro_clusters([0], region) == [inside]

    def test_days_property(self):
        forest = AtypicalForest(small_calendar())
        forest.add_day(2, [])
        forest.add_day(0, [])
        assert forest.days == [0, 2]


class TestMaterialization:
    def test_week_integrates_recurring_event(self):
        forest = AtypicalForest(small_calendar(), integrator=ClusterIntegrator(0.5))
        for day in range(7):
            forest.add_day(day, [recurring_day(day, forest.ids)])
        week = forest.week_clusters(0)
        assert len(week) == 1
        assert week[0].severity() == pytest.approx(70.0)

    def test_month_uses_week_level(self):
        forest = AtypicalForest(small_calendar(), integrator=ClusterIntegrator(0.5))
        for day in range(14):
            forest.add_day(day, [recurring_day(day, forest.ids)])
        month = forest.month_clusters(0)
        assert len(month) == 1
        assert month[0].severity() == pytest.approx(140.0)

    def test_cache_invalidated_by_new_day(self):
        forest = AtypicalForest(small_calendar(), integrator=ClusterIntegrator(0.5))
        forest.add_day(0, [recurring_day(0, forest.ids)])
        assert len(forest.week_clusters(0)) == 1
        forest.add_day(1, [recurring_day(1, forest.ids)])
        week = forest.week_clusters(0)
        assert week[0].severity() == pytest.approx(20.0)

    def test_stats(self):
        forest = AtypicalForest(small_calendar(), integrator=ClusterIntegrator(0.5))
        for day in range(7):
            forest.add_day(day, [recurring_day(day, forest.ids)])
        forest.week_clusters(0)
        stats = forest.stats()
        assert stats.num_days == 7
        assert stats.num_micro == 7
        assert stats.num_week_macro == 1


class TestProvenance:
    def test_children_and_leaves(self):
        forest = AtypicalForest(small_calendar(), integrator=ClusterIntegrator(0.5))
        micros = []
        for day in range(3):
            cluster = recurring_day(day, forest.ids)
            micros.append(cluster)
            forest.add_day(day, [cluster])
        week = forest.week_clusters(0)[0]
        leaves = forest.leaves_of(week)
        assert sorted(c.cluster_id for c in leaves) == sorted(
            c.cluster_id for c in micros
        )

    def test_lookup(self):
        forest = AtypicalForest(small_calendar())
        cluster = recurring_day(0, forest.ids)
        forest.add_day(0, [cluster])
        assert forest.lookup(cluster.cluster_id) is cluster

    def test_leaves_of_micro_is_itself(self):
        forest = AtypicalForest(small_calendar())
        cluster = recurring_day(0, forest.ids)
        forest.add_day(0, [cluster])
        assert forest.leaves_of(cluster) == [cluster]

    def test_iteration_order(self):
        forest = AtypicalForest(small_calendar())
        c1 = recurring_day(1, forest.ids)
        c0 = recurring_day(0, forest.ids)
        forest.add_day(1, [c1])
        forest.add_day(0, [c0])
        assert list(forest) == [c0, c1]
