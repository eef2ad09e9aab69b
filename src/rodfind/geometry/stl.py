"""STL codec: parses binary (80-byte header + uint32 count + 50-byte
records) and ASCII, auto-detected, and writes binary. Triangle payload
round-trips bit-exactly through the binary form."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import StlError

_RECORD = np.dtype([("normal", "<f4", (3,)),
                    ("vertices", "<f4", (3, 3)),
                    ("attr", "<u2")])
assert _RECORD.itemsize == 50


@dataclass
class TriangleMesh:
    """Triangle soup in mm: per-facet normal, 3 vertices, 2 attribute bytes."""

    normals: np.ndarray   # (T, 3) float32
    vertices: np.ndarray  # (T, 3, 3) float32
    attrs: np.ndarray     # (T,) uint16

    def __post_init__(self):
        self.normals = np.ascontiguousarray(self.normals, dtype=np.float32).reshape(-1, 3)
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float32).reshape(-1, 3, 3)
        if self.attrs is None:
            self.attrs = np.zeros(len(self.vertices), dtype=np.uint16)
        self.attrs = np.ascontiguousarray(self.attrs, dtype=np.uint16).reshape(-1)
        if not (len(self.normals) == len(self.vertices) == len(self.attrs)):
            raise StlError("normal/vertex/attribute counts disagree")
        if len(self.vertices) and not (np.isfinite(self.normals).all()
                                       and np.isfinite(self.vertices).all()):
            raise StlError("mesh contains non-finite coordinates")

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, TriangleMesh):
            return NotImplemented
        return (np.array_equal(self.normals, other.normals)
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.attrs, other.attrs))


def parse_stl(data: bytes) -> TriangleMesh:
    """Parse binary or ASCII STL bytes, format auto-detected."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise StlError("parse_stl expects bytes")
    data = bytes(data)
    if len(data) >= 84:
        (count,) = struct.unpack_from("<I", data, 80)
        if len(data) == 84 + 50 * count:
            return _parse_binary(data, count)
    if data.lstrip()[:5] == b"solid":
        return _parse_ascii(data)
    if len(data) < 84:
        raise StlError(f"binary STL needs at least 84 bytes, got {len(data)}")
    (count,) = struct.unpack_from("<I", data, 80)
    raise StlError(
        f"truncated binary STL: header declares {count} triangles "
        f"({84 + 50 * count} bytes expected), got {len(data)} bytes")


def _parse_binary(data: bytes, count: int) -> TriangleMesh:
    records = np.frombuffer(data, dtype=_RECORD, count=count, offset=84)
    return TriangleMesh(records["normal"].copy(), records["vertices"].copy(),
                        records["attr"].copy())


def _parse_ascii(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise StlError(f"ASCII STL is not ASCII-decodable: {exc}") from None

    tokens = []  # (line_number, word)
    for lineno, line in enumerate(text.splitlines(), start=1):
        for word in line.split():
            tokens.append((lineno, word))
    pos = 0

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise StlError(f"line {tokens[-1][0] if tokens else 0}: unexpected end of file")
        lineno, word = tokens[pos]
        pos += 1
        if expected is not None and word.lower() != expected:
            raise StlError(f"line {lineno}: expected {expected!r}, got {word!r}")
        return lineno, word

    def take_float():
        lineno, word = take()
        try:
            return float(word)
        except ValueError:
            raise StlError(f"line {lineno}: expected a number, got {word!r}") from None

    take("solid")
    # optional solid name: consume words until 'facet' or 'endsolid'
    while pos < len(tokens) and tokens[pos][1].lower() not in ("facet", "endsolid"):
        pos += 1

    normals, triangles = [], []
    while True:
        lineno, word = take()
        if word.lower() == "endsolid":
            break
        if word.lower() != "facet":
            raise StlError(f"line {lineno}: expected 'facet' or 'endsolid', got {word!r}")
        take("normal")
        normals.append([take_float() for _ in range(3)])
        take("outer")
        take("loop")
        tri = []
        for _ in range(3):
            take("vertex")
            tri.append([take_float() for _ in range(3)])
        triangles.append(tri)
        take("endloop")
        take("endfacet")

    n = len(triangles)
    return TriangleMesh(np.asarray(normals, dtype=np.float32).reshape(n, 3),
                        np.asarray(triangles, dtype=np.float32).reshape(n, 3, 3),
                        np.zeros(n, dtype=np.uint16))


def write_stl(mesh: TriangleMesh) -> bytes:
    """Binary STL bytes of `mesh`."""
    records = np.zeros(len(mesh), dtype=_RECORD)
    records["normal"] = mesh.normals
    records["vertices"] = mesh.vertices
    records["attr"] = mesh.attrs
    header = b"rodfind binary STL".ljust(80, b"\0")
    return header + struct.pack("<I", len(mesh)) + records.tobytes()


_CUBE_FACES = (
    # (axis, sign) -> two CCW triangles seen from outside
    ((0, -1), ((0, 0, 0), (0, 0, 1), (0, 1, 1)), ((0, 0, 0), (0, 1, 1), (0, 1, 0))),
    ((0, +1), ((1, 0, 0), (1, 1, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 1), (1, 0, 1))),
    ((1, -1), ((0, 0, 0), (1, 0, 0), (1, 0, 1)), ((0, 0, 0), (1, 0, 1), (0, 0, 1))),
    ((1, +1), ((0, 1, 0), (0, 1, 1), (1, 1, 1)), ((0, 1, 0), (1, 1, 1), (1, 1, 0))),
    ((2, -1), ((0, 0, 0), (0, 1, 0), (1, 1, 0)), ((0, 0, 0), (1, 1, 0), (1, 0, 0))),
    ((2, +1), ((0, 0, 1), (1, 0, 1), (1, 1, 1)), ((0, 0, 1), (1, 1, 1), (0, 1, 1))),
)


def cuboid_mesh(center, size) -> TriangleMesh:
    """Watertight 12-triangle axis-aligned cuboid, for tests and previews."""
    c = np.asarray(center, dtype=np.float64)
    s = np.asarray(size, dtype=np.float64)
    lo = c - s / 2.0
    normals, tris = [], []
    for (axis, sign), tri_a, tri_b in _CUBE_FACES:
        n = [0.0, 0.0, 0.0]
        n[axis] = float(sign)
        for tri in (tri_a, tri_b):
            normals.append(n)
            tris.append([lo + np.asarray(corner) * s for corner in tri])
    return TriangleMesh(np.asarray(normals, dtype=np.float32),
                        np.asarray(tris, dtype=np.float32),
                        np.zeros(12, dtype=np.uint16))
