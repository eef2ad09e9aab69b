"""CSG solid trees: primitives, boolean nodes, point membership, bounding boxes.

Membership is evaluated at sample points; a point exactly on a primitive
surface counts as inside, which keeps boolean algebra exact under
center-point sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BuildError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box in mm, min <= max componentwise."""

    min: tuple[float, float, float]
    max: tuple[float, float, float]

    def __post_init__(self):
        if any(lo > hi for lo, hi in zip(self.min, self.max)):
            raise BuildError(f"invalid AABB: min {self.min} exceeds max {self.max}")

    @property
    def extent(self) -> tuple[float, float, float]:
        return tuple(hi - lo for lo, hi in zip(self.min, self.max))

    @property
    def center(self) -> tuple[float, float, float]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.min, self.max))

    def merge(self, other: "Aabb") -> "Aabb":
        return Aabb(tuple(map(min, self.min, other.min)),
                    tuple(map(max, self.max, other.max)))


def _positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise BuildError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class Cuboid:
    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        for axis, s in zip("xyz", self.size):
            _positive(f"cuboid {axis} size", s)


@dataclass(frozen=True)
class Cylinder:
    center: tuple[float, float, float]
    radius: float
    height: float
    axis: int = 2  # 0=x, 1=y, 2=z

    def __post_init__(self):
        _positive("cylinder radius", self.radius)
        _positive("cylinder height", self.height)
        if self.axis not in (0, 1, 2):
            raise BuildError(f"cylinder axis must be 0, 1 or 2, got {self.axis}")


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        _positive("sphere radius", self.radius)


@dataclass(frozen=True)
class ArcSlab:
    """Annular-sector bar extruded along `axis`; the arc lives in the plane
    of the two remaining axes, angles measured by atan2(second, first)."""

    center: tuple[float, float, float]
    mid_radius: float
    radial_width: float
    height: float
    angle_start: float
    angle_sweep: float
    axis: int = 1

    def __post_init__(self):
        _positive("arc-slab mid radius", self.mid_radius)
        _positive("arc-slab radial width", self.radial_width)
        _positive("arc-slab height", self.height)
        if not 0 < self.angle_sweep <= _TWO_PI:
            raise BuildError(f"arc-slab sweep must be in (0, 2*pi], got {self.angle_sweep}")
        if self.radial_width >= 2.0 * self.mid_radius:
            raise BuildError("arc-slab radial width must be smaller than its diameter")
        if self.axis not in (0, 1, 2):
            raise BuildError(f"arc-slab axis must be 0, 1 or 2, got {self.axis}")

    @property
    def plane_axes(self) -> tuple[int, int]:
        u, v = [a for a in (0, 1, 2) if a != self.axis]
        return u, v


@dataclass(frozen=True)
class Union:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 1:
            raise BuildError("union needs at least one child")


@dataclass(frozen=True)
class Difference:
    """First child minus the union of the rest."""

    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise BuildError("difference needs at least two children")


def contains(solid, points: np.ndarray) -> np.ndarray:
    """Vectorized point membership for (M, 3) points; returns bool (M,)."""
    pts = np.asarray(points, dtype=np.float64)
    if isinstance(solid, Cuboid):
        d = np.abs(pts - np.asarray(solid.center))
        half = np.asarray(solid.size) / 2.0
        return np.all(d <= half, axis=1)
    if isinstance(solid, Cylinder):
        d = pts - np.asarray(solid.center)
        u, v = [a for a in (0, 1, 2) if a != solid.axis]
        radial = d[:, u] ** 2 + d[:, v] ** 2
        return (np.abs(d[:, solid.axis]) <= solid.height / 2.0) & (radial <= solid.radius ** 2)
    if isinstance(solid, Sphere):
        d = pts - np.asarray(solid.center)
        return (d ** 2).sum(axis=1) <= solid.radius ** 2
    if isinstance(solid, ArcSlab):
        d = pts - np.asarray(solid.center)
        u, v = solid.plane_axes
        rr = d[:, u] ** 2 + d[:, v] ** 2
        r_in = solid.mid_radius - solid.radial_width / 2.0
        r_out = solid.mid_radius + solid.radial_width / 2.0
        ang = np.arctan2(d[:, v], d[:, u])
        rel = np.mod(ang - solid.angle_start, _TWO_PI)
        return ((np.abs(d[:, solid.axis]) <= solid.height / 2.0)
                & (rr >= r_in ** 2) & (rr <= r_out ** 2)
                & (rel <= solid.angle_sweep))
    if isinstance(solid, Union):
        out = contains(solid.children[0], pts)
        for child in solid.children[1:]:
            out |= contains(child, pts)
        return out
    if isinstance(solid, Difference):
        out = contains(solid.children[0], pts)
        for child in solid.children[1:]:
            out &= ~contains(child, pts)
        return out
    raise BuildError(f"unknown solid node {type(solid).__name__}")


def _arc_candidates(slab: ArcSlab):
    angles = [slab.angle_start, slab.angle_start + slab.angle_sweep]
    k0 = math.ceil(slab.angle_start / (math.pi / 2.0))
    k = k0
    while k * math.pi / 2.0 <= slab.angle_start + slab.angle_sweep:
        angles.append(k * math.pi / 2.0)
        k += 1
    radii = (slab.mid_radius - slab.radial_width / 2.0,
             slab.mid_radius + slab.radial_width / 2.0)
    for ang in angles:
        for r in radii:
            yield r * math.cos(ang), r * math.sin(ang)


def solid_aabb(solid) -> Aabb:
    """Bounding box; exact for primitives and unions, conservative for a
    difference (its first child's box)."""
    if isinstance(solid, Cuboid):
        half = np.asarray(solid.size) / 2.0
        c = np.asarray(solid.center)
        return Aabb(tuple(c - half), tuple(c + half))
    if isinstance(solid, Cylinder):
        half = np.full(3, solid.radius)
        half[solid.axis] = solid.height / 2.0
        c = np.asarray(solid.center)
        return Aabb(tuple(c - half), tuple(c + half))
    if isinstance(solid, Sphere):
        c = np.asarray(solid.center)
        return Aabb(tuple(c - solid.radius), tuple(c + solid.radius))
    if isinstance(solid, ArcSlab):
        u, v = solid.plane_axes
        us, vs = zip(*_arc_candidates(solid))
        lo = list(solid.center)
        hi = list(solid.center)
        lo[u] += min(us)
        hi[u] += max(us)
        lo[v] += min(vs)
        hi[v] += max(vs)
        lo[solid.axis] -= solid.height / 2.0
        hi[solid.axis] += solid.height / 2.0
        return Aabb(tuple(lo), tuple(hi))
    if isinstance(solid, Union):
        box = solid_aabb(solid.children[0])
        for child in solid.children[1:]:
            box = box.merge(solid_aabb(child))
        return box
    if isinstance(solid, Difference):
        return solid_aabb(solid.children[0])
    raise BuildError(f"unknown solid node {type(solid).__name__}")
