"""Solid modeling layer: CSG primitives, STL codec, AABB-normalized voxelization."""

from .solids import (
    Aabb,
    ArcSlab,
    Cuboid,
    Cylinder,
    Difference,
    Intersection,
    Sphere,
    Union,
    contains,
    scale_solid,
    solid_aabb,
    translate_solid,
)
from .stl import TriangleMesh, cuboid_mesh, parse_stl, write_stl
from .voxelize import VoxelGrid, voxelize_mesh, voxelize_solid
from .build import BAND_MIDPOINTS, SIZE_BANDS, build_solid, concrete_sizes
