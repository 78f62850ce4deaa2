"""Tests for the sensor-day cube and the R-tree severity provider."""

import numpy as np
import pytest

from repro.cube.datacube import SeverityCube
from repro.cube.sensorcube import RTreeSeverityProvider, SensorDayCube
from repro.spatial.geometry import BBox
from repro.spatial.regions import DistrictGrid
from repro.temporal.hierarchy import Calendar

from tests.conftest import line_network, make_batch, two_road_network


def build(num_sensors=10, days=(14,)):
    net = line_network(num_sensors, spacing=1.0)
    calendar = Calendar(
        month_lengths=days, month_names=tuple(f"m{i}" for i in range(len(days)))
    )
    return net, calendar, SensorDayCube(net, calendar)


class TestSensorDayCube:
    def test_shape(self):
        _, _, cube = build()
        assert cube.shape == (10, 14)

    def test_accumulates_per_sensor(self):
        _, _, cube = build()
        cube.add_records(make_batch([(3, 10, 4.0), (3, 11, 2.0), (5, 10, 1.0)]))
        assert cube.day_weights([0]) == {3: 6.0, 5: 1.0}

    def test_day_separation(self):
        _, _, cube = build()
        cube.add_records(make_batch([(3, 10, 4.0), (3, 288 + 10, 2.0)]))
        assert cube.day_weights([0]) == {3: 4.0}
        assert cube.day_weights([1]) == {3: 2.0}

    def test_beyond_calendar_rejected(self):
        _, _, cube = build()
        with pytest.raises(ValueError):
            cube.add_records(make_batch([(0, 288 * 99, 1.0)]))

    def test_day_weights_skip_zeros(self):
        _, _, cube = build()
        cube.add_records(make_batch([(3, 10, 4.0)]))
        assert cube.day_weights([0]) == {3: 4.0}

    def test_total(self):
        _, _, cube = build()
        cube.add_records(make_batch([(1, 1, 2.0), (2, 2, 3.0)]))
        assert cube.total_severity() == 5.0

    def test_empty_batch(self):
        from repro.core.records import RecordBatch

        _, _, cube = build()
        cube.add_records(RecordBatch.empty())
        assert cube.records_added == 0


class TestRTreeSeverityProvider:
    def test_rectangle_matches_manual_sum(self):
        net, calendar, cube = build()
        cube.add_records(make_batch([(0, 10, 4.0), (4, 10, 6.0), (9, 10, 1.0)]))
        provider = RTreeSeverityProvider(cube, net)
        # sensors 0..4 live at x = 0..4
        assert provider.rectangle_severity(BBox(-1, -1, 4.5, 1), [0]) == 10.0

    def test_day_range_refresh(self):
        net, calendar, cube = build()
        cube.add_records(make_batch([(0, 10, 4.0), (0, 288 + 10, 6.0)]))
        provider = RTreeSeverityProvider(cube, net)
        box = BBox(-1, -1, 99, 1)
        assert provider.rectangle_severity(box, [0]) == 4.0
        assert provider.rectangle_severity(box, [1]) == 6.0
        assert provider.rectangle_severity(box, [0, 1]) == 10.0

    def test_matches_district_cube(self):
        # the R-tree provider must agree with the district severity cube on
        # every district of a tiling grid
        net = two_road_network(gap=3.0)
        calendar = Calendar(month_lengths=(7,), month_names=("m",))
        districts = DistrictGrid(net, cols=3, rows=2)
        district_cube = SeverityCube(districts, calendar)
        sensor_cube = SensorDayCube(net, calendar)
        rng = np.random.default_rng(4)
        records = [
            (int(rng.integers(0, 12)), int(rng.integers(0, 7 * 288)), float(rng.uniform(0.5, 5)))
            for _ in range(200)
        ]
        batch = make_batch(records)
        district_cube.add_records(batch)
        sensor_cube.add_records(batch)
        provider = RTreeSeverityProvider(sensor_cube, net)
        days = list(range(7))
        for district in districts:
            assert provider.district_severity(district, days) == pytest.approx(
                district_cube.district_severity(district, days)
            )

    def test_usable_as_red_zone_provider(self):
        # plug the R-tree provider into the query processor (the Sec. II-A
        # "R-tree rectangles" partition option)
        from repro.core.forest import AtypicalForest
        from repro.core.integration import ClusterIntegrator
        from repro.core.query import AnalyticalQuery, QueryProcessor
        from repro.spatial.regions import QueryRegion

        from tests.conftest import make_cluster

        net = line_network(10, spacing=1.0)
        calendar = Calendar(month_lengths=(7,), month_names=("m",))
        districts = DistrictGrid(net, cols=5, rows=1)
        forest = AtypicalForest(calendar, integrator=ClusterIntegrator(0.5))
        sensor_cube = SensorDayCube(net, calendar)
        for day in range(7):
            cluster = make_cluster(
                {2: 20.0, 3: 10.0}, {100: 30.0}, cluster_id=forest.ids.next_id()
            )
            forest.add_day(day, [cluster])
            sensor_cube.add_records(
                make_batch([(2, day * 288 + 100, 20.0), (3, day * 288 + 100, 10.0)])
            )
        provider = RTreeSeverityProvider(sensor_cube, net)
        processor = QueryProcessor(forest, districts, provider, delta_s=0.05)
        query = AnalyticalQuery.over_days(QueryRegion.whole_network(net), 0, 7)
        result = processor.run(query, "gui")
        assert result.stats.red_zones == 1
        assert len(result.significant()) == 1
