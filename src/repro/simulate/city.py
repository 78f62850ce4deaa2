"""Synthetic city layout: freeway corridors in a planar grid.

The PeMS traces cover 38 highways around Los Angeles and Ventura. The
synthetic city reproduces the structural essentials: east-west and
north-south freeway corridors crossing a rectangular metro area, each
corridor carrying two directed highways (e.g. ``Fwy 10E`` / ``Fwy 10W``),
with mild geometric jitter so districts and corridors do not align
perfectly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.spatial.geometry import Point
from repro.spatial.network import Highway

__all__ = ["CityLayout", "build_highways"]

#: Historic LA freeway numbers used to name synthetic corridors.
_FREEWAY_NUMBERS = (10, 405, 101, 110, 5, 605, 210, 710, 60, 105, 118, 2)


@dataclass(frozen=True)
class CityLayout:
    """Geometry of the synthetic metro area (distances in miles)."""

    width_miles: float = 18.0
    height_miles: float = 14.0
    ew_corridors: int = 6
    ns_corridors: int = 1
    jitter_miles: float = 0.15

    def __post_init__(self) -> None:
        if self.width_miles <= 0 or self.height_miles <= 0:
            raise ValueError("city dimensions must be positive")
        if self.ew_corridors < 1 and self.ns_corridors < 1:
            raise ValueError("the city needs at least one corridor")

    @property
    def num_corridors(self) -> int:
        return self.ew_corridors + self.ns_corridors


def build_highways(layout: CityLayout, seed: int = 0) -> List[Highway]:
    """Build the directed highways of the city, deterministically by seed.

    Corridors are evenly spaced across the city with jittered waypoints;
    each yields two highways, one per direction, whose polylines are
    reversed copies of each other (loop detectors of opposite directions
    sit at the same physical locations, as on real freeways).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    highways: List[Highway] = []
    highway_id = 0
    corridor = 0

    def corridor_name(index: int) -> str:
        if index < len(_FREEWAY_NUMBERS):
            return str(_FREEWAY_NUMBERS[index])
        return str(900 + index)

    for i in range(layout.ew_corridors):
        y = layout.height_miles * (i + 1) / (layout.ew_corridors + 1)
        points = _jittered_line(
            rng,
            start=Point(0.0, y),
            end=Point(layout.width_miles, y),
            jitter=layout.jitter_miles,
            axis="x",
        )
        name = corridor_name(corridor)
        highways.append(Highway(highway_id, f"Fwy {name}E", tuple(points)))
        highways.append(
            Highway(highway_id + 1, f"Fwy {name}W", tuple(reversed(points)))
        )
        highway_id += 2
        corridor += 1

    for j in range(layout.ns_corridors):
        x = layout.width_miles * (j + 1) / (layout.ns_corridors + 1)
        points = _jittered_line(
            rng,
            start=Point(x, 0.0),
            end=Point(x, layout.height_miles),
            jitter=layout.jitter_miles,
            axis="y",
        )
        name = corridor_name(corridor)
        highways.append(Highway(highway_id, f"Fwy {name}N", tuple(points)))
        highways.append(
            Highway(highway_id + 1, f"Fwy {name}S", tuple(reversed(points)))
        )
        highway_id += 2
        corridor += 1

    return highways


def _jittered_line(
    rng: np.random.Generator,
    start: Point,
    end: Point,
    jitter: float,
    axis: str,
    waypoints: int = 4,
) -> List[Point]:
    """A polyline from ``start`` to ``end`` with jittered interior points."""
    points = [start]
    for k in range(1, waypoints + 1):
        frac = k / (waypoints + 1)
        x = start.x + frac * (end.x - start.x)
        y = start.y + frac * (end.y - start.y)
        offset = float(rng.normal(0.0, jitter / 2.0))
        offset = float(np.clip(offset, -jitter, jitter))
        if axis == "x":
            y += offset
        else:
            x += offset
        points.append(Point(x, y))
    points.append(end)
    return points
