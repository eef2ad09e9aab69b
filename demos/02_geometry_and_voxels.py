"""Parametric rod solids, STL round trips, AABB-normalized voxelization.

Run: python demos/02_geometry_and_voxels.py
"""

import numpy as np

from rodfind import LinkingRodSpec
from rodfind import geometry as geo

spec = LinkingRodSpec(
    structure={"link": {"main structure": "binary link"},
               "shaft": {"main structure": "cuboid"}},
    sizes={"shaft": {"length": "large", "width": "medium", "thickness": "medium"},
           "first pivot hole": {"inner diameter": "medium",
                                "outer diameter": "large", "depth": "large"},
           "second pivot hole": {"inner diameter": "medium",
                                 "outer diameter": "medium", "depth": "small"}})

sizes = geo.concrete_sizes(spec)
print("concrete sizes (mm):")
for key, mm in sizes.items():
    print(f"  {key[0]}.{key[1]}: {mm:.2f}")

solid = geo.build_solid(spec, sizes)
grid = geo.voxelize_solid(solid, 16)
print(f"\noccupied voxels: {grid.occupied_count} / {16 ** 3}")

print("\nmid-height slice (z = 7):")
for row in grid.occupancy[:, :, 7].T[::-1]:
    print("  " + "".join("#" if v else "." for v in row))

# the grid frames the solid's bounding box, so scaling and moving a solid
# leaves its grid unchanged
small = geo.voxelize_solid(geo.Cuboid((0.0, 0.0, 0.0), (16.0, 11.0, 11.0)), 16)
moved = geo.voxelize_solid(geo.Cuboid((5.0, -3.0, 11.0), (32.0, 22.0, 22.0)), 16)
assert moved == small
print("\nscale+translate invariance holds for a cuboid doubled and moved")

# mesh path: a watertight cube agrees with the CSG path
mesh = geo.cuboid_mesh((0, 0, 0), (16.0, 11.0, 11.0))
stl_bytes = geo.write_stl(mesh)
parsed = geo.parse_stl(stl_bytes)
assert parsed == mesh
via_mesh = geo.voxelize_mesh(parsed, 16)
via_csg = geo.voxelize_solid(geo.Cuboid((0, 0, 0), (16.0, 11.0, 11.0)), 16)
print("binary STL round trip exact:", parsed == mesh)
print("mesh path == CSG path for the aligned cuboid:", via_mesh == via_csg)
