"""Tests for geometry primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import BBox, Point, polyline_length, walk_polyline

coords = st.floats(-100, 100, allow_nan=False)


class TestPoint:
    def test_distance_pythagorean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_zero(self):
        assert Point(1.5, 2.5).distance_to(Point(1.5, 2.5)) == 0.0

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_as_tuple(self):
        assert Point(1, 2).as_tuple() == (1.0, 2.0)

    @given(x1=coords, y1=coords, x2=coords, y2=coords)
    def test_distance_symmetric(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == b.distance_to(a)

    @given(x1=coords, y1=coords, x2=coords, y2=coords, x3=coords, y3=coords)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


class TestBBox:
    def test_dimensions(self):
        box = BBox(0, 0, 4, 3)
        assert box.width == 4
        assert box.height == 3
        assert box.area == 12

    def test_center(self):
        assert BBox(0, 0, 4, 2).center == Point(2, 1)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(5, 0, 0, 1)

    def test_contains_half_open(self):
        box = BBox(0, 0, 1, 1)
        assert box.contains(Point(0, 0))
        assert not box.contains(Point(1, 0))
        assert not box.contains(Point(0, 1))

    def test_contains_closed(self):
        box = BBox(0, 0, 1, 1)
        assert box.contains_closed(Point(1, 1))

    def test_adjacent_boxes_tile(self):
        left = BBox(0, 0, 1, 1)
        right = BBox(1, 0, 2, 1)
        boundary = Point(1, 0.5)
        assert left.contains(boundary) != right.contains(boundary)

    def test_intersects_overlap(self):
        assert BBox(0, 0, 2, 2).intersects(BBox(1, 1, 3, 3))

    def test_intersects_disjoint(self):
        assert not BBox(0, 0, 1, 1).intersects(BBox(2, 2, 3, 3))

    def test_touching_edges_do_not_intersect(self):
        assert not BBox(0, 0, 1, 1).intersects(BBox(1, 0, 2, 1))

    def test_union(self):
        combined = BBox(0, 0, 1, 1).union(BBox(2, 2, 3, 3))
        assert combined == BBox(0, 0, 3, 3)

    def test_expanded(self):
        assert BBox(1, 1, 2, 2).expanded(1) == BBox(0, 0, 3, 3)

    def test_around_points(self):
        box = BBox.around([Point(1, 5), Point(-2, 0), Point(4, 2)])
        assert box == BBox(-2, 0, 4, 5)

    def test_around_empty_raises(self):
        with pytest.raises(ValueError):
            BBox.around([])

    def test_around_single_point_degenerate(self):
        box = BBox.around([Point(1, 1)])
        assert box.area == 0


class TestPolyline:
    def test_length_straight(self):
        assert polyline_length([Point(0, 0), Point(3, 4)]) == 5.0

    def test_length_multi_segment(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        assert polyline_length(pts) == 2.0

    def test_walk_spacing(self):
        pts = [Point(0, 0), Point(10, 0)]
        stops = list(walk_polyline(pts, 2.0))
        mileposts = [m for m, _ in stops]
        assert mileposts == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_walk_crosses_vertices(self):
        pts = [Point(0, 0), Point(3, 0), Point(3, 3)]
        stops = list(walk_polyline(pts, 2.0))
        # total length 6 -> mileposts 0, 2, 4, 6
        assert len(stops) == 4
        assert stops[2][1] == Point(3, 1)

    def test_walk_rejects_short_polyline(self):
        with pytest.raises(ValueError):
            list(walk_polyline([Point(0, 0)], 1.0))

    def test_walk_rejects_bad_step(self):
        with pytest.raises(ValueError):
            list(walk_polyline([Point(0, 0), Point(1, 0)], 0))

    def test_walk_points_on_line(self):
        pts = [Point(0, 0), Point(5, 5)]
        for _, p in walk_polyline(pts, 1.0):
            assert math.isclose(p.x, p.y, abs_tol=1e-9)
