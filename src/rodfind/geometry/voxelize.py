"""AABB-normalized voxelization of CSG solids and triangle meshes.

The solid's bounding box is uniformly scaled (aspect preserved) and centered
into the unit cube; a voxel is occupied when its center lies inside the
solid (CSG path) or when its box overlaps a triangle / is enclosed by the
surface (mesh path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import binary_propagation

from ..errors import VoxelError
from .solids import Aabb, contains, solid_aabb
from .stl import TriangleMesh

DEFAULT_RESOLUTION = 16


@dataclass
class GridMeta:
    """Provenance of a grid: source id plus the world->cube normalization
    (normalized = (p - origin) / cube_side). Not part of grid equality."""

    source_id: str | None = None
    origin: tuple[float, float, float] | None = None
    cube_side: float | None = None


@dataclass
class VoxelGrid:
    """Cubic binary occupancy grid, indexed [ix, iy, iz]."""

    resolution: int
    occupancy: np.ndarray
    meta: GridMeta = field(default_factory=GridMeta)

    def __post_init__(self):
        n = int(self.resolution)
        occ = np.ascontiguousarray(self.occupancy, dtype=np.uint8)
        if occ.shape != (n, n, n):
            raise VoxelError(f"occupancy shape {occ.shape} does not match {n}^3")
        if not np.isin(occ, (0, 1)).all():
            raise VoxelError("occupancy values must be 0 or 1")
        self.resolution = n
        self.occupancy = occ

    def __eq__(self, other):
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return (self.resolution == other.resolution
                and np.array_equal(self.occupancy, other.occupancy))

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())

    def linear(self) -> np.ndarray:
        """x-fastest linearization (first axis varies fastest)."""
        return self.occupancy.ravel(order="F")


def _check_resolution(resolution):
    n = int(resolution)
    if n < 2:
        raise VoxelError(f"resolution must be >= 2, got {resolution}")
    return n


def _grid_centers(box: Aabb, n: int):
    """World coordinates of voxel centers for a box normalized into the
    cube of side max(extent), centered; returns (pts (n^3, 3), origin, side)."""
    extent = box.extent
    side = max(extent)
    if not side > 0:
        raise VoxelError("degenerate solid: zero-volume bounding box")
    center = box.center
    origin = tuple(c - side / 2.0 for c in center)
    steps = (np.arange(n, dtype=np.float64) + 0.5) * (side / n)
    axes = [origin[a] + steps for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    return pts, origin, side


def voxelize_solid(solid, resolution: int = DEFAULT_RESOLUTION, *,
                   aabb: Aabb | None = None, source_id: str | None = None) -> VoxelGrid:
    """Occupancy by CSG point membership at voxel centers (interior included
    by construction). An explicit `aabb` pins the normalization frame, which
    lets callers compare solids on a common grid."""
    n = _check_resolution(resolution)
    box = aabb if aabb is not None else solid_aabb(solid)
    if any(e <= 0 for e in box.extent):
        raise VoxelError(
            f"degenerate solid: zero-volume bounding-box axis (extent {box.extent})")
    pts, origin, side = _grid_centers(box, n)
    occ = contains(solid, pts).reshape(n, n, n).astype(np.uint8)
    return VoxelGrid(n, occ, GridMeta(source_id, origin, side))


# ---------------------------------------------------------------------------
# Mesh path: exact triangle-box overlap for the surface, outside flood fill
# for the interior.

def _tri_box_overlap(tri: np.ndarray, centers: np.ndarray, half: float = 0.5) -> np.ndarray:
    """Separating-axis test of one triangle against many axis-aligned cubes
    (inclusive: touching counts as overlap). `tri` is (3, 3) in cell units,
    `centers` (M, 3) cube centers with half-extent `half`."""
    v = tri[None, :, :] - centers[:, None, :]  # (M, 3 verts, 3)
    ok = np.ones(len(centers), dtype=bool)

    # box face normals
    for a in range(3):
        lo = v[:, :, a].min(axis=1)
        hi = v[:, :, a].max(axis=1)
        ok &= ~((lo > half) | (hi < -half))

    # triangle plane
    e0 = tri[1] - tri[0]
    e1 = tri[2] - tri[1]
    e2 = tri[0] - tri[2]
    normal = np.cross(e0, e1)
    d = v[:, 0, :] @ normal
    r = half * np.abs(normal).sum()
    ok &= ~((d > r) | (d < -r))

    # 9 edge cross products
    for edge in (e0, e1, e2):
        for a in range(3):
            axis = np.zeros(3)
            axis[a] = 1.0
            cross = np.cross(edge, axis)
            if not cross.any():
                continue
            p = v @ cross  # (M, 3)
            rad = half * np.abs(cross).sum()
            ok &= ~((p.min(axis=1) > rad) | (p.max(axis=1) < -rad))
    return ok


def _surface_cells(verts_cells: np.ndarray, n: int) -> np.ndarray:
    surface = np.zeros((n, n, n), dtype=bool)
    for tri in verts_cells:
        # one-cell margin so boundary-touching cells stay candidates
        lo = np.clip(np.floor(tri.min(axis=0)).astype(int) - 1, 0, n - 1)
        hi = np.clip(np.floor(tri.max(axis=0)).astype(int) + 2, 1, n)
        ix, iy, iz = np.meshgrid(*(np.arange(lo[a], hi[a]) for a in range(3)),
                                 indexing="ij")
        idx = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        if not len(idx):
            continue
        centers = idx.astype(np.float64) + 0.5
        hit = _tri_box_overlap(tri, centers)
        sel = idx[hit]
        surface[sel[:, 0], sel[:, 1], sel[:, 2]] = True
    return surface


def _exterior_fill(surface: np.ndarray) -> np.ndarray:
    """Cells 6-connected to the grid boundary without crossing the surface."""
    free = ~surface
    boundary = np.ones_like(surface)
    boundary[1:-1, 1:-1, 1:-1] = False
    return binary_propagation(boundary & free, mask=free)


def _is_watertight(mesh: TriangleMesh) -> bool:
    """Combinatorial check: every directed edge (on position-welded
    vertices) is matched by exactly one opposite directed edge."""
    from collections import Counter

    edges = Counter()
    for tri in mesh.vertices:
        keys = [tuple(v.tolist()) for v in tri]
        if len(set(keys)) < 3:
            return False
        for i in range(3):
            edges[(keys[i], keys[(i + 1) % 3])] += 1
    for (a, b), count in edges.items():
        if count != 1 or edges.get((b, a), 0) != 1:
            return False
    return True


def _ray_parity(point: np.ndarray, verts: np.ndarray) -> int:
    """Crossing parity of a tilted ray from `point` (cell units): the
    Moller-Trumbore test against all triangles `verts` (T, 3, 3) at once."""
    direction = np.array([1.0, 0.5773502691896258, 0.2679491924311227])
    v0 = verts[:, 0]
    e1 = verts[:, 1] - v0
    e2 = verts[:, 2] - v0
    p = np.cross(direction, e2)
    det = (e1 * p).sum(axis=1)
    facing = np.abs(det) >= 1e-12  # rays parallel to a triangle never cross it
    e1, e2, p, det = e1[facing], e2[facing], p[facing], det[facing]
    t_vec = point - v0[facing]
    q = np.cross(t_vec, e1)
    u = (t_vec * p).sum(axis=1) / det
    v = (q @ direction) / det
    t = (e2 * q).sum(axis=1) / det
    crossings = (u >= 0) & (u <= 1) & (v >= 0) & (u + v <= 1) & (t > 0)
    return int(np.count_nonzero(crossings)) % 2


def voxelize_mesh(mesh: TriangleMesh, resolution: int = DEFAULT_RESOLUTION, *,
                  mode: str = "fill", source_id: str | None = None) -> VoxelGrid:
    """Voxelize a triangle mesh.

    mode="fill" marks surface cells (exact triangle-box overlap) and fills
    the enclosed interior via the complement of an outside flood fill; the
    mesh must be watertight. mode="surface" marks surface cells only.
    """
    n = _check_resolution(resolution)
    if mode not in ("fill", "surface"):
        raise VoxelError(f"unknown voxelization mode {mode!r}")
    if len(mesh) == 0:
        raise VoxelError("cannot voxelize an empty mesh")

    verts = mesh.vertices.astype(np.float64)
    lo = verts.reshape(-1, 3).min(axis=0)
    hi = verts.reshape(-1, 3).max(axis=0)
    box = Aabb(tuple(lo), tuple(hi))
    side = max(box.extent)
    if not side > 0:
        raise VoxelError("degenerate mesh: zero-volume bounding box")
    origin = np.asarray(box.center) - side / 2.0
    cell = side / n
    verts_cells = (verts - origin) / cell

    surface = _surface_cells(verts_cells, n)
    if mode == "surface":
        occ = surface
    else:
        exterior = _exterior_fill(surface)
        if not _is_watertight(mesh):
            leak = _find_leak(exterior, surface, verts_cells)
            if leak is None:
                raise VoxelError(
                    "mesh is not watertight and encloses no volume; "
                    "use mode='surface'")
            raise VoxelError(
                f"mesh is not watertight: flood fill leaks into interior "
                f"candidate cell {leak}; use mode='surface'")
        occ = ~exterior
    return VoxelGrid(n, occ.astype(np.uint8),
                     GridMeta(source_id, tuple(origin), side))


def _find_leak(exterior, surface, verts_cells):
    """First exterior-connected cell (x-fastest order) whose center is
    inside the surface by ray-crossing parity."""
    n = exterior.shape[0]
    candidates = np.argwhere(exterior.transpose(2, 1, 0))  # (iz, iy, ix) rows
    for iz, iy, ix in candidates:
        center = np.array([ix + 0.5, iy + 0.5, iz + 0.5])
        if _ray_parity(center, verts_cells):
            return (int(ix), int(iy), int(iz))
    return None
