"""Tests for the synthetic city layout."""

import pytest

from repro.simulate.city import CityLayout, build_highways
from repro.spatial.geometry import polyline_length


class TestCityLayout:
    def test_defaults(self):
        layout = CityLayout()
        assert layout.num_corridors == layout.ew_corridors + layout.ns_corridors

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            CityLayout(width_miles=0)


class TestBuildHighways:
    def test_count(self):
        layout = CityLayout(ew_corridors=2, ns_corridors=1)
        assert len(build_highways(layout)) == 6

    def test_directions_paired(self):
        highways = build_highways(CityLayout(ew_corridors=1, ns_corridors=1))
        east, west = highways[0], highways[1]
        assert east.name.endswith("E") and west.name.endswith("W")
        assert east.points == tuple(reversed(west.points))

    def test_ns_names(self):
        highways = build_highways(CityLayout(ew_corridors=1, ns_corridors=1))
        north, south = highways[2], highways[3]
        assert north.name.endswith("N") and south.name.endswith("S")

    def test_deterministic_by_seed(self):
        layout = CityLayout()
        a = build_highways(layout, seed=3)
        b = build_highways(layout, seed=3)
        assert all(x.points == y.points for x, y in zip(a, b))

    def test_ids_dense(self):
        highways = build_highways(CityLayout())
        assert [h.highway_id for h in highways] == list(range(len(highways)))

    def test_length_close_to_nominal(self):
        layout = CityLayout(width_miles=18)
        highways = build_highways(layout, seed=1)
        ew = [h for h in highways if h.name.endswith("E")]
        for highway in ew:
            assert polyline_length(highway.points) == pytest.approx(18, rel=0.05)

    def test_jitter_bounded(self):
        layout = CityLayout(jitter_miles=0.15)
        for highway in build_highways(layout, seed=2):
            if highway.name.endswith(("E", "W")):
                ys = [p.y for p in highway.points]
                assert max(ys) - min(ys) <= 2 * 0.15 + 1e-9

    def test_corridors_spaced_apart(self):
        # adjacent EW corridors must stay further apart than delta_d = 1.5
        layout = CityLayout()
        highways = build_highways(layout, seed=7)
        ew = [h for h in highways if h.name.endswith("E")]
        centers = sorted(sum(p.y for p in h.points) / len(h.points) for h in ew)
        for a, b in zip(centers, centers[1:]):
            assert b - a > 1.5
