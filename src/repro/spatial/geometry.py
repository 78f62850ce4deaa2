"""Planar geometry primitives for the synthetic city.

The simulated city lives in a planar coordinate system measured in miles,
so the distance threshold ``delta_d`` of Definition 1 (1.5 - 24 miles in the
paper's parameter table, Fig. 14) maps directly onto Euclidean distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Point", "BBox", "polyline_length", "walk_polyline"]


@dataclass(frozen=True, order=True)
class Point:
    """A 2-D point in mile coordinates."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned bounding box ``[min_x, max_x) x [min_y, max_y)``.

    Used both for query regions ``W`` and for the pre-defined districts that
    play the role of the paper's zipcode areas.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(f"degenerate bbox: {self}")

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def contains(self, point: Point) -> bool:
        """Half-open containment so adjacent boxes tile without overlap."""
        return (
            self.min_x <= point.x < self.max_x
            and self.min_y <= point.y < self.max_y
        )

    def contains_closed(self, point: Point) -> bool:
        """Closed containment (used for query regions at the city edge)."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def intersects(self, other: "BBox") -> bool:
        return not (
            other.min_x >= self.max_x
            or other.max_x <= self.min_x
            or other.min_y >= self.max_y
            or other.max_y <= self.min_y
        )

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "BBox":
        return BBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    @staticmethod
    def around(points: Iterable[Point]) -> "BBox":
        """Tight bounding box around a non-empty point collection."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot bound an empty point collection") from None
        min_x = max_x = first.x
        min_y = max_y = first.y
        for point in iterator:
            min_x = min(min_x, point.x)
            max_x = max(max_x, point.x)
            min_y = min(min_y, point.y)
            max_y = max(max_y, point.y)
        return BBox(min_x, min_y, max_x, max_y)


def polyline_length(points: Sequence[Point]) -> float:
    """Total length of a polyline in miles."""
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


def walk_polyline(points: Sequence[Point], step: float) -> Iterator[tuple[float, Point]]:
    """Yield ``(milepost, point)`` pairs every ``step`` miles along a polyline.

    Sensors are deployed by walking freeway polylines at a fixed spacing;
    the milepost is the arc-length position, which also serves as a natural
    ordering of sensors along a highway for the congestion simulator.
    """
    if len(points) < 2:
        raise ValueError("polyline needs at least two points")
    if step <= 0:
        raise ValueError("step must be positive")

    milepost = 0.0
    yield 0.0, points[0]
    next_at = step
    travelled = 0.0
    for start, end in zip(points, points[1:]):
        seg_len = start.distance_to(end)
        if seg_len == 0:
            continue
        while next_at <= travelled + seg_len:
            frac = (next_at - travelled) / seg_len
            yield next_at, Point(
                start.x + frac * (end.x - start.x),
                start.y + frac * (end.y - start.y),
            )
            milepost = next_at
            next_at += step
        travelled += seg_len
