import struct

import numpy as np
import pytest

from rodfind.errors import StlError
from rodfind.geometry import TriangleMesh, cuboid_mesh, parse_stl, write_stl

from conftest import random_mesh


def test_empty_mesh_binary_is_84_bytes():
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3, 3)), np.zeros(0, np.uint16))
    data = write_stl(empty)
    assert len(data) == 84
    assert len(parse_stl(data)) == 0


def test_one_triangle_binary_is_134_bytes():
    mesh = TriangleMesh(np.array([[0, 0, 1]]), np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]]),
                        np.zeros(1, np.uint16))
    assert len(write_stl(mesh)) == 84 + 50


def test_binary_round_trip_bit_identical():
    rng = np.random.default_rng(42)
    for _ in range(20):
        mesh = random_mesh(rng, int(rng.integers(1, 40)))
        data = write_stl(mesh)
        back = parse_stl(data)
        assert back == mesh
        assert write_stl(back)[84:] == data[84:]  # payload byte-stable


def test_ascii_round_trip_exact():
    rng = np.random.default_rng(43)
    values = rng.normal(scale=50.0, size=12).astype(np.float32)
    # 9 significant digits print a float32 so that it reads back exactly
    words = [f"{float(x):.9g}" for x in values]
    text = ("solid s\n facet normal " + " ".join(words[:3]) + "\n  outer loop\n"
            + "".join("   vertex " + " ".join(words[i:i + 3]) + "\n" for i in (3, 6, 9))
            + "  endloop\n endfacet\nendsolid s\n").encode("ascii")
    mesh = parse_stl(text)
    assert np.array_equal(mesh.normals[0], values[:3])
    assert np.array_equal(mesh.vertices[0], values[3:].reshape(3, 3))


def test_ascii_single_facet():
    text = b"""solid sample
      facet normal 0 0 1
        outer loop
          vertex 0 0 0
          vertex 1 0 0
          vertex 0 1 0
        endloop
      endfacet
    endsolid sample
    """
    mesh = parse_stl(text)
    assert len(mesh) == 1
    assert np.array_equal(mesh.vertices[0],
                          np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], np.float32))


def test_binary_declared_count_preserved():
    mesh = cuboid_mesh((0, 0, 0), (1, 2, 3))
    data = write_stl(mesh)
    (count,) = struct.unpack_from("<I", data, 80)
    assert count == 12 == len(parse_stl(data))


def test_truncated_binary_reports_byte_counts():
    mesh = cuboid_mesh((0, 0, 0), (1, 1, 1))
    data = bytearray(write_stl(mesh))
    struct.pack_into("<I", data, 80, 20)  # declare 20, provide 12
    with pytest.raises(StlError) as err:
        parse_stl(bytes(data))
    assert "1084" in str(err.value)  # expected bytes for 20 records
    assert str(len(data)) in str(err.value)


def test_ascii_error_names_line():
    text = b"solid s\n facet normal 0 0 1\n outer loop\n vertex 0 0 oops\n"
    with pytest.raises(StlError, match="line 4"):
        parse_stl(text)


@pytest.mark.parametrize("word", [b"1e39", b"-nan", b"inf"])
def test_ascii_number_with_no_finite_float32_names_line(word):
    # a float32 copy of it would overflow to inf, or is not a number
    text = (b"solid s\n facet normal 0 0 1\n outer loop\n vertex 0 0 " + word
            + b"\n vertex 1 0 0\n vertex 0 1 0\n endloop\n endfacet\nendsolid s\n")
    with pytest.raises(StlError, match="line 4: .* is not a finite float32"):
        parse_stl(text)


def test_vertex_order_preserved():
    tri = np.array([[[3, 1, 4], [1, 5, 9], [2, 6, 5]]], dtype=np.float32)
    mesh = TriangleMesh(np.array([[0, 0, 1]], np.float32), tri, np.zeros(1, np.uint16))
    back = parse_stl(write_stl(mesh))
    assert np.array_equal(back.vertices, tri)
