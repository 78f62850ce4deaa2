"""Spatial substrate: geometry, road network, regions and the sensor grid.

:mod:`repro.spatial.rtree` (read only by the R-tree ablation) is not
re-exported; import it by module path.
"""

from repro.spatial.geometry import BBox, Point, walk_polyline
from repro.spatial.grid import SensorGridIndex
from repro.spatial.network import Highway, Sensor, SensorNetwork, deploy_sensors
from repro.spatial.regions import District, DistrictGrid, QueryRegion

__all__ = [
    "BBox",
    "Point",
    "walk_polyline",
    "Highway",
    "Sensor",
    "SensorNetwork",
    "deploy_sensors",
    "District",
    "DistrictGrid",
    "QueryRegion",
    "SensorGridIndex",
]
