"""Parametric construction of linking-rod solids from validated specs.

Canonical frame: shaft along +x, pivot-hole axes along +z. Size classes map
to concrete millimetres through per-attribute reference dimensions and the
band midpoints; inner diameters are referenced to the hole's own outer
diameter so that bores always stay feasible.
"""

from __future__ import annotations

import math

from ..errors import BuildError, SpecError
from ..taxonomy import LinkingRodSpec, SizeClass, default_schema, validate_spec
from .solids import ArcSlab, Cuboid, Cylinder, Difference, Union, solid_aabb

WORKING_CUBE_MM = 64.0

# small/medium/large bands as fractions of the reference dimension
SIZE_BANDS = {
    SizeClass.SMALL: (0.2, 0.4),
    SizeClass.MEDIUM: (0.4, 0.7),
    SizeClass.LARGE: (0.7, 1.0),
}
BAND_MIDPOINTS = {cls: (lo + hi) / 2.0 for cls, (lo, hi) in SIZE_BANDS.items()}

# reference dimensions in mm, sized so that every class step moves at least
# a voxel or two on the corpus's 16^3 grid; inner diameter is relative
# (see concrete_sizes); the arc radius reference sits at the feasibility
# limit (smallest radius >= half the longest shaft) for maximal curvature
REFERENCE_MM = {
    ("shaft", "length"): 40.0,
    ("shaft", "width"): 16.0,
    ("shaft", "thickness"): 14.0,
    ("shaft", "radius"): 57.0,
    ("hole", "outer diameter"): 18.0,
    ("hole", "depth"): 18.0,
    ("hole", "inner edge convex thickness"): 6.0,
}
INNER_TO_OUTER = 0.6  # inner-diameter reference = 0.6 x this hole's outer diameter

# subtrahend cylinders just need to cover the whole working cube
_CUT_HEIGHT = 2.0 * WORKING_CUBE_MM


def mm_value(cls: SizeClass, reference: float) -> float:
    return BAND_MIDPOINTS[cls] * reference


def concrete_sizes(spec: LinkingRodSpec) -> dict[tuple[str, str], float]:
    """Deterministic mm value for every assigned size attribute (band midpoint
    of its class times the attribute's reference dimension)."""
    hole_names = default_schema().hole_entity_names
    sizes: dict[tuple[str, str], float] = {}
    for entity, attrs in spec.sizes.items():
        family = "hole" if entity in hole_names else entity
        outer = attrs.get("outer diameter")
        for attr, cls in attrs.items():
            if attr == "inner diameter":
                if outer is None:
                    raise BuildError(f"{entity}: inner diameter needs an outer diameter")
                ref = INNER_TO_OUTER * mm_value(outer, REFERENCE_MM[("hole", "outer diameter")])
            else:
                try:
                    ref = REFERENCE_MM[(family, attr)]
                except KeyError:
                    raise BuildError(f"no reference dimension for {entity}.{attr}") from None
            sizes[(entity, attr)] = mm_value(cls, ref)
    return sizes


def _get(sizes, entity, attr):
    try:
        return sizes[(entity, attr)]
    except KeyError:
        raise BuildError(f"missing concrete size for {entity}.{attr}") from None


def _hub_parts(spec, sizes, entity, x):
    """Positive parts of one pivot-hole hub, unbored: `build_solid` cuts
    the hole's bore through all of them at once."""
    outer = _get(sizes, entity, "outer diameter")
    inner = _get(sizes, entity, "inner diameter")
    depth = _get(sizes, entity, "depth")
    if inner >= outer:
        raise BuildError(
            f"{entity}: inner diameter ({inner:g} mm) must be smaller than "
            f"outer diameter ({outer:g} mm)")
    center = (x, 0.0, 0.0)
    bodies = [Cylinder(center, outer / 2.0, depth, axis=2)]
    struct = spec.structure_of(entity)
    if struct.get("type") == "separate type":
        # separate bushing: a taller concentric sleeve proud of the hub face
        bodies.append(Cylinder(center, 0.75 * outer / 2.0, 1.8 * depth, axis=2))
    if struct.get("additional feature") == "inner edge convex":
        convex = _get(sizes, entity, "inner edge convex thickness")
        ring_r = inner / 2.0 + 0.4 * (outer - inner) / 2.0
        bodies.append(Cylinder(center, ring_r, depth + 2.0 * convex, axis=2))
    return bodies


def _shaft_body(spec, sizes, length):
    thickness = _get(sizes, "shaft", "thickness")
    if spec.structure_of("shaft")["main structure"] == "cuboid":
        width = _get(sizes, "shaft", "width")
        return Cuboid((0.0, 0.0, 0.0), (length, width, thickness)), None
    # the schema's other shaft structure: an arc-shaped vertical slab
    radius = _get(sizes, "shaft", "radius")
    if radius < length / 2.0:
        raise BuildError(
            f"arc radius ({radius:g} mm) must be at least half the shaft "
            f"length ({length:g} mm)")
    zc = -math.sqrt(radius ** 2 - (length / 2.0) ** 2)
    theta_right = math.atan2(-zc, length / 2.0)
    theta_left = math.atan2(-zc, -length / 2.0)
    slab = ArcSlab(center=(0.0, 0.0, zc), mid_radius=radius,
                   radial_width=0.75 * thickness, height=thickness,
                   angle_start=theta_right,
                   angle_sweep=theta_left - theta_right, axis=1)
    apex = (0.0, 0.0, zc + radius)
    return slab, apex


def _lightening_hole(spec, sizes, shaft, apex, length):
    struct = spec.structure_of("shaft")
    if struct.get("additional feature") != "hole structure":
        return None
    axis = {"x direction": 0, "y direction": 1,
            "z direction": 2}[struct["hole structure direction"]]
    thickness = _get(sizes, "shaft", "thickness")
    if isinstance(shaft, Cuboid):
        width = _get(sizes, "shaft", "width")
        spans = {0: length, 1: width, 2: thickness}
        cross = [spans[a] for a in (0, 1, 2) if a != axis]
        r = 0.35 * min(cross)
        height = spans[axis] if axis != 0 else 0.7 * length
        return Cylinder((0.0, 0.0, 0.0), r, height, axis=axis)
    # arc slab: pierce the apex
    radial = shaft.radial_width
    spans = {0: 0.5 * length, 1: thickness, 2: radial}
    cross = [spans[a] for a in (0, 1, 2) if a != axis]
    r = 0.35 * min(cross)
    return Cylinder(apex, r, spans[axis], axis=axis)


def build_solid(spec: LinkingRodSpec, sizes: dict[tuple[str, str], float]):
    """Assemble the CSG tree for a valid spec with concrete mm sizes.

    Shape: difference(union(hub bodies..., shaft body), bore, bore[, hole]);
    each bore runs through the whole working cube, so it opens its pivot
    hole through every hub body and the shaft alike. Deterministic for
    fixed inputs.
    """
    report = validate_spec(spec)
    if not report.ok:
        raise SpecError("cannot build an invalid spec", report.violations)

    for key, value in sizes.items():
        if not (value > 0 and math.isfinite(value)):
            raise BuildError(f"size {key} must be positive and finite, got {value}")

    # a valid spec names exactly one full pivot-hole pair
    left, right = default_schema().hole_pair(spec.entity_names())[1]

    length = _get(sizes, "shaft", "length")
    positions = {left: -length / 2.0, right: length / 2.0}

    positives = []
    cuts = []
    for entity in (left, right):
        positives.extend(_hub_parts(spec, sizes, entity, positions[entity]))
        inner = _get(sizes, entity, "inner diameter")
        cuts.append(Cylinder((positions[entity], 0.0, 0.0), inner / 2.0,
                             _CUT_HEIGHT, axis=2))

    shaft, apex = _shaft_body(spec, sizes, length)
    positives.append(shaft)

    hole = _lightening_hole(spec, sizes, shaft, apex, length)
    if hole is not None:
        cuts.append(hole)

    solid = Difference((Union(tuple(positives)), *cuts))

    extent = solid_aabb(solid).extent
    if max(extent) > WORKING_CUBE_MM:
        raise BuildError(
            f"solid extent {tuple(round(e, 2) for e in extent)} mm exceeds the "
            f"{WORKING_CUBE_MM:g} mm working cube")
    return solid
