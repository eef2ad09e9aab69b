import math

import numpy as np
import pytest

from rodfind import LinkingRodSpec
from rodfind import geometry as geo
from rodfind.errors import SpecError, VoxelError
from rodfind.geometry import voxelize
from rodfind.geometry.voxelize import _exterior_fill


def oracle_centers(box_min, side, n):
    """Voxel centers per the normalization contract, computed independently."""
    cell = side / n
    return [box_min + (i + 0.5) * cell for i in range(n)]


def random_primitive(rng, dyadic=False, scale=1.0, offset=(0.0, 0.0, 0.0)):
    """A random primitive; `scale` and `offset` give the same draw mapped by
    p -> scale * p + offset."""
    def val(lo, hi):
        if dyadic:
            return scale * (rng.integers(int(lo * 8), int(hi * 8) + 1) / 8.0)
        return scale * float(rng.uniform(lo, hi))

    kind = rng.integers(0, 4)
    center = tuple(val(-4, 4) + o for o in offset)
    if kind == 0:
        return geo.Cuboid(center, (val(1, 6), val(1, 6), val(1, 6)))
    if kind == 1:
        return geo.Cylinder(center, val(0.5, 3), val(1, 6), axis=int(rng.integers(0, 3)))
    if kind == 2:
        return geo.Sphere(center, val(0.5, 3))
    return geo.ArcSlab(center, mid_radius=val(2, 4), radial_width=val(0.5, 1.5),
                       height=val(1, 4), angle_start=float(rng.uniform(0, 2 * math.pi)),
                       angle_sweep=float(rng.uniform(0.5, 2 * math.pi)),
                       axis=int(rng.integers(0, 3)))


class TestVoxelizeSolid:
    def test_cube_fills_grid(self):
        grid = geo.voxelize_solid(geo.Cuboid((0, 0, 0), (64, 64, 64)), 16)
        assert grid.occupied_count == 16 ** 3

    def test_cylinder_matches_bruteforce(self):
        n = 16
        cyl = geo.Cylinder((0, 0, 0), radius=32.0, height=64.0, axis=2)
        grid = geo.voxelize_solid(cyl, n)
        xs = oracle_centers(-32.0, 64.0, n)
        occupied = 0
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                inside_circle = x * x + y * y <= 32.0 ** 2
                for k, z in enumerate(xs):
                    inside = inside_circle and abs(z) <= 32.0
                    assert bool(grid.occupancy[i, j, k]) == inside
                    occupied += inside
        assert grid.occupied_count == occupied
        # diameter == cube side: every z layer repeats the same disc
        per_layer = int(grid.occupancy[:, :, 0].sum())
        assert grid.occupied_count == n * per_layer

    def test_sphere_matches_bruteforce(self):
        n = 16
        grid = geo.voxelize_solid(geo.Sphere((0, 0, 0), 32.0), n)
        xs = oracle_centers(-32.0, 64.0, n)
        count = sum(
            x * x + y * y + z * z <= 32.0 ** 2
            for x in xs for y in xs for z in xs)
        assert grid.occupied_count == count

    def test_csg_algebra_or_andnot(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_primitive(rng)
            b = random_primitive(rng)
            union = geo.Union((a, b))
            box = geo.solid_aabb(union)
            ga = geo.voxelize_solid(a, 8, aabb=box)
            gb = geo.voxelize_solid(b, 8, aabb=box)
            gu = geo.voxelize_solid(union, 8, aabb=box)
            assert np.array_equal(gu.occupancy, ga.occupancy | gb.occupancy)
            diff = geo.Difference((a, b))
            gd = geo.voxelize_solid(diff, 8, aabb=box)
            assert np.array_equal(gd.occupancy, ga.occupancy & (1 - gb.occupancy))

    def test_union_and_difference_monotonic(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_primitive(rng)
            b = random_primitive(rng)
            box = geo.solid_aabb(geo.Union((a, b)))
            base = geo.voxelize_solid(a, 8, aabb=box).occupied_count
            grown = geo.voxelize_solid(geo.Union((a, b)), 8, aabb=box).occupied_count
            shrunk = geo.voxelize_solid(geo.Difference((a, b)), 8, aabb=box).occupied_count
            assert grown >= base >= shrunk

    def test_normalization_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            state = rng.bit_generator.state

            def pair(**frame):
                # the same two dyadic draws, so scaling and moving them is exact
                rng.bit_generator.state = state
                return geo.Union((random_primitive(rng, dyadic=True, **frame),
                                  random_primitive(rng, dyadic=True, **frame)))

            reference = geo.voxelize_solid(pair(), 16)
            for factor in (2.0, 0.5, 8.0):
                assert geo.voxelize_solid(pair(scale=factor), 16) == reference
            assert geo.voxelize_solid(pair(offset=(3.0, -17.0, 5.0)), 16) == reference

    def test_degenerate_aabb_axis_rejected(self):
        flat = geo.Aabb((1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        with pytest.raises(VoxelError, match="zero-volume"):
            geo.voxelize_solid(geo.Cuboid((0, 0, 0), (2, 2, 2)), 8, aabb=flat)

    def test_resolution_must_be_at_least_two(self):
        with pytest.raises(VoxelError, match="resolution"):
            geo.voxelize_solid(geo.Sphere((0, 0, 0), 1.0), 1)


class TestVoxelizeMesh:
    def test_cube_mesh_fills_grid(self):
        grid = geo.voxelize_mesh(geo.cuboid_mesh((0, 0, 0), (10, 10, 10)), 16)
        assert grid.occupied_count == 16 ** 3

    def test_mesh_path_matches_csg_path_for_aligned_cuboid(self):
        # faces land on voxel-center planes, where both conventions agree
        size = (16.0, 11.0, 11.0)
        via_mesh = geo.voxelize_mesh(geo.cuboid_mesh((0, 0, 0), size), 16)
        via_csg = geo.voxelize_solid(geo.Cuboid((0, 0, 0), size), 16)
        assert via_mesh == via_csg

    def test_single_triangle_matches_bruteforce_overlap(self):
        tri = np.array([[[0.1, 0.2, 0.3], [6.9, 1.1, 2.2], [2.3, 6.1, 4.7]]],
                       dtype=np.float32)
        mesh = geo.TriangleMesh(np.array([[0.0, 0.0, 1.0]], dtype=np.float32),
                                tri, np.zeros(1, dtype=np.uint16))
        n = 8
        grid = geo.voxelize_mesh(mesh, n, mode="surface")

        # overlap is defined in the normalized frame where cells are unit boxes
        verts = tri[0].astype(np.float64)
        lo = verts.min(axis=0)
        hi = verts.max(axis=0)
        side = float((hi - lo).max())
        origin = (lo + hi) / 2.0 - side / 2.0
        verts_cells = (verts - origin) / (side / n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected = sat_overlap(verts_cells, np.array([i, j, k], float), 1.0)
                    assert bool(grid.occupancy[i, j, k]) == expected, (i, j, k)

    def test_fill_requires_watertight(self):
        full = geo.cuboid_mesh((0, 0, 0), (10, 10, 10))
        leaky = geo.TriangleMesh(full.normals[:-1], full.vertices[:-1], full.attrs[:-1])
        with pytest.raises(VoxelError, match="not watertight"):
            geo.voxelize_mesh(leaky, 8, mode="fill")
        geo.voxelize_mesh(leaky, 8, mode="surface")  # surface mode still fine

    def test_empty_mesh_rejected(self):
        empty = geo.TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3, 3)),
                                 np.zeros(0, dtype=np.uint16))
        with pytest.raises(VoxelError, match="empty"):
            geo.voxelize_mesh(empty, 8)


def hub_mesh(segments, outer=10.0, inner=5.0, height=8.0):
    """Watertight annulus of `segments` sides with a through bore: outer and
    inner walls, top and bottom rings, 8 * segments triangles."""
    angle = 2 * np.pi * np.arange(segments) / segments
    ring = np.stack([np.cos(angle), np.sin(angle), np.zeros(segments)], axis=1)
    ob, ot, ib, it = (radius * ring + [0.0, 0.0, z]
                      for radius, z in ((outer, 0.0), (outer, height), (inner, 0.0),
                                        (inner, height)))
    a, b = np.arange(segments), np.roll(np.arange(segments), -1)
    tris = np.concatenate([np.stack(corners, axis=1) for corners in (
        (ob[a], ob[b], ot[b]), (ob[a], ot[b], ot[a]), (ib[a], it[a], it[b]),
        (ib[a], it[b], ib[b]), (ot[a], ot[b], it[b]), (ot[a], it[b], it[a]),
        (ob[a], ib[a], ib[b]), (ob[a], ib[b], ob[b]))])
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return geo.TriangleMesh(normals / np.linalg.norm(normals, axis=1, keepdims=True),
                            tris, None)


class TestWatertight:
    def test_hub_is_watertight_and_closed(self):
        hub = hub_mesh(16)
        assert voxelize._is_watertight(hub)
        grid = geo.voxelize_mesh(hub, 8, mode="fill")
        assert grid.occupied_count > 0

    # single-triangle holes in the outer wall, the inner wall (two) and the bottom
    @pytest.mark.parametrize("drop", [0, 50, 115, 40])
    def test_leaky_hub_is_refused(self, drop):
        hub = hub_mesh(16)
        keep = np.arange(len(hub)) != drop
        leaky = geo.TriangleMesh(hub.normals[keep], hub.vertices[keep], hub.attrs[keep])
        assert not voxelize._is_watertight(leaky)
        with pytest.raises(VoxelError, match="^mesh is not watertight; use mode='surface'$"):
            geo.voxelize_mesh(leaky, 8, mode="fill")


def reference_exterior_fill(surface):
    """Breadth-first flood from the free boundary cells over 6-neighbours."""
    n = surface.shape[0]
    exterior = np.zeros_like(surface)
    queue = [c for c in np.ndindex(surface.shape)
             if not surface[c] and (0 in c or n - 1 in c)]
    for c in queue:
        exterior[c] = True
    while queue:
        x, y, z = queue.pop()
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            c = (x + dx, y + dy, z + dz)
            if all(0 <= i < n for i in c) and not surface[c] and not exterior[c]:
                exterior[c] = True
                queue.append(c)
    return exterior


def shell_with_gap(gap):
    """Surface of the box [2, 5]^3 in an 8^3 grid, its one-cell-thick wall
    opened at `gap`; the cavity is [3, 4]^3."""
    surface = np.zeros((8, 8, 8), dtype=bool)
    surface[2:6, 2:6, 2:6] = True
    surface[3:5, 3:5, 3:5] = False
    surface[gap] = False
    return surface


class TestExteriorFill:
    @pytest.mark.parametrize("gap", [(2, 2, 3), (2, 2, 2)], ids=["edge", "corner"])
    def test_gap_touching_the_cavity_only_diagonally_does_not_leak(self, gap):
        exterior = _exterior_fill(shell_with_gap(gap))
        assert exterior[gap]  # the gap itself opens onto the outside
        assert not exterior[3:5, 3:5, 3:5].any()

    def test_gap_sharing_a_face_with_the_cavity_leaks(self):
        exterior = _exterior_fill(shell_with_gap((2, 3, 3)))
        assert exterior[3:5, 3:5, 3:5].all()

    # from a density of 0.5 on, some free cells of the 5^3 and 9^3 grids
    # are enclosed
    @pytest.mark.parametrize("density", [0.3, 0.5, 0.6])
    def test_matches_the_breadth_first_reference(self, density):
        rng = np.random.default_rng(int(density * 100))
        for n in (2, 3, 5, 9):
            surface = rng.random((n, n, n)) < density
            assert np.array_equal(_exterior_fill(surface),
                                  reference_exterior_fill(surface))


def sat_overlap(tri, box_lo, cell):
    """Scalar separating-axis oracle: triangle vs one cube, touching counts."""
    center = box_lo + cell / 2.0
    v = tri - center
    half = cell / 2.0

    def separated(axis):
        proj = [float(np.dot(vert, axis)) for vert in v]
        radius = half * sum(abs(float(a)) for a in axis)
        return min(proj) > radius or max(proj) < -radius

    for a in range(3):
        e = np.zeros(3)
        e[a] = 1.0
        if separated(e):
            return False
    edges = [tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2]]
    if separated(np.cross(edges[0], edges[1])):
        return False
    for edge in edges:
        for a in range(3):
            unit = np.zeros(3)
            unit[a] = 1.0
            axis = np.cross(edge, unit)
            if axis.any() and separated(axis):
                return False
    return True


class TestArcSlab:
    def test_aabb_bounds_membership(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            slab = geo.ArcSlab((0.0, 0.0, 0.0),
                               mid_radius=float(rng.uniform(2, 5)),
                               radial_width=float(rng.uniform(0.5, 2)),
                               height=float(rng.uniform(1, 3)),
                               angle_start=float(rng.uniform(0, 2 * math.pi)),
                               angle_sweep=float(rng.uniform(0.3, 2 * math.pi)),
                               axis=int(rng.integers(0, 3)))
            box = geo.solid_aabb(slab)
            span = np.linspace(-8, 8, 33)
            gx, gy, gz = np.meshgrid(span, span, span, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
            inside = geo.contains(slab, pts)
            assert inside.any()
            member = pts[inside]
            assert (member >= np.asarray(box.min) - 1e-9).all()
            assert (member <= np.asarray(box.max) + 1e-9).all()


class TestBuildSolid:
    def test_tree_structure_for_plain_cuboid_rod(self, cuboid_rod_spec):
        solid = geo.build_solid(cuboid_rod_spec)
        assert isinstance(solid, geo.Difference)
        body, *cuts = solid.children
        assert isinstance(body, geo.Union)
        assert all(isinstance(c, geo.Cylinder) for c in cuts) and len(cuts) == 2
        # the hubs are plain cylinders: the two bores above open their holes
        hubs = [c for c in body.children if isinstance(c, geo.Cylinder)]
        assert len(hubs) == 2 and len(body.children) == 3
        assert [h.center for h in hubs] == [c.center for c in cuts]
        assert any(isinstance(c, geo.Cuboid) for c in body.children)

    def test_arc_rod_builds_and_voxelizes(self, arc_rod_spec):
        solid = geo.build_solid(arc_rod_spec)
        grid = geo.voxelize_solid(solid, 16)
        assert 0 < grid.occupied_count < 16 ** 3

    @pytest.mark.parametrize("shaft, shaft_sizes", [
        ({"main structure": "cuboid"}, {"width": "large"}),
        ({"main structure": "arc-shaped vertical slab", "cross section": "rectangle"},
         {"radius": "small"}),
    ], ids=["cuboid", "arc"])
    def test_shipped_tables_keep_every_valid_spec_buildable(self, shaft, shaft_sizes):
        # build_solid does not check the sizes it derives; these bounds of the
        # tables keep every bore inside its hub, every arc closed over its
        # shaft and every solid inside the working cube
        from rodfind.geometry.build import (
            BAND_MIDPOINTS, INNER_TO_OUTER, REFERENCE_MM, WORKING_CUBE_MM)

        largest, smallest = max(BAND_MIDPOINTS.values()), min(BAND_MIDPOINTS.values())
        assert INNER_TO_OUTER * largest < 1
        assert (smallest * REFERENCE_MM[("shaft", "radius")]
                >= largest * REFERENCE_MM[("shaft", "length")] / 2)
        assert largest * (REFERENCE_MM[("shaft", "length")]
                          + REFERENCE_MM[("hole", "outer diameter")]) < WORKING_CUBE_MM
        # the worst case of those bounds: every size large but the arc's
        # radius, both hub options on one hole
        hole = {"inner diameter": "large", "outer diameter": "large", "depth": "large"}
        spec = LinkingRodSpec(
            structure={"link": {"main structure": "binary link"}, "shaft": shaft,
                       "first pivot hole": {"type": "separate type",
                                            "additional feature": "inner edge convex"}},
            sizes={"shaft": {"length": "large", "thickness": "large", **shaft_sizes},
                   "first pivot hole": {**hole, "inner edge convex thickness": "large"},
                   "second pivot hole": hole})
        solid = geo.build_solid(spec)
        assert max(geo.solid_aabb(solid).extent) <= WORKING_CUBE_MM
        assert geo.voxelize_solid(solid, 16).occupied_count > 0

    def test_same_inputs_same_tree(self, cuboid_rod_spec):
        assert geo.build_solid(cuboid_rod_spec) == geo.build_solid(cuboid_rod_spec)

    def test_invalid_spec_rejected(self, cuboid_rod_spec):
        broken = LinkingRodSpec(
            cuboid_rod_spec.structure,
            {e: dict(a) for e, a in cuboid_rod_spec.sizes.items()
             if e != "second pivot hole"})
        with pytest.raises(SpecError):
            geo.build_solid(broken)

    def test_spec_without_link_rejected(self, unlinked_three_hole_spec):
        spec = unlinked_three_hole_spec
        with pytest.raises(SpecError, match="invalid spec") as err:
            geo.build_solid(spec)
        assert "missing mandatory entity: link" in err.value.violations

    def test_band_midpoints(self, cuboid_rod_spec):
        from rodfind.geometry.build import INNER_TO_OUTER, REFERENCE_MM

        sizes = geo.concrete_sizes(cuboid_rod_spec)
        assert sizes[("shaft", "length")] == pytest.approx(
            0.85 * REFERENCE_MM[("shaft", "length")])
        assert sizes[("shaft", "width")] == pytest.approx(
            0.55 * REFERENCE_MM[("shaft", "width")])
        outer = sizes[("second pivot hole", "outer diameter")]
        assert sizes[("second pivot hole", "inner diameter")] == pytest.approx(
            0.55 * INNER_TO_OUTER * outer)
