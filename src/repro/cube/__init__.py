"""Bottom-up cube substrate: severity cube and CubeView baselines.

:mod:`repro.cube.sensorcube` (the R-tree region-aggregation ablation) is
not re-exported; import it by module path.
"""

from repro.cube.cubeview import (
    ConstructionReport,
    PreprocessResult,
    build_cube_mc,
    build_cube_oc,
    preprocess,
)
from repro.cube.datacube import SeverityCube

__all__ = [
    "ConstructionReport",
    "PreprocessResult",
    "build_cube_mc",
    "build_cube_oc",
    "preprocess",
    "SeverityCube",
]
