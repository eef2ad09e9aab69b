"""Solid modeling layer: CSG primitives, STL codec, AABB-normalized voxelization."""

from .solids import (
    Aabb,
    ArcSlab,
    Cuboid,
    Cylinder,
    Difference,
    Sphere,
    Union,
    contains,
    solid_aabb,
)
from .stl import TriangleMesh, cuboid_mesh, parse_stl, write_stl
from .voxelize import VoxelGrid, voxelize_mesh, voxelize_solid
from .build import BAND_MIDPOINTS, SIZE_BANDS, build_solid, concrete_sizes
