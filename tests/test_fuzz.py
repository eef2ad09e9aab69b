"""Every reader of a file format refuses bad bytes with its own error type.

Each codec's own output, changed by one byte (substituted, deleted or
inserted), goes to its reader, which must return a value or raise its own
RodfindError subclass: never numpy's, json's, csv's or struct's own
exceptions, nor another codec's error.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfind import dataset as ds
from rodfind import encoders as enc
from rodfind import retrieval as rt
from rodfind.errors import (EncoderError, ManifestError, NrrdError, RetrievalError,
                             StlError)
from rodfind.geometry import VoxelGrid, parse_stl, write_stl

from conftest import random_mesh
from test_encoders import tiny_params, words


def nrrd_bytes():
    rng = np.random.default_rng(0)
    return ds.write_nrrd(VoxelGrid(4, rng.integers(0, 2, size=(4, 4, 4))))


def checkpoint_bytes():
    return enc.checkpoint_bytes(*tiny_params(dtype=np.float32), words(8), {"seed": 11})


def index_bytes(path):
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(3, 4))
    index = rt.ShapeIndex(["a", "b", "c"], rows / np.linalg.norm(rows, axis=1, keepdims=True),
                          ["a.nrrd", "b.nrrd", "c.nrrd"], ["x", "y", "z"], "f" * 64, 16)
    rt.save_index(index, path)
    return path.read_bytes()


def binary_stl_bytes():
    return write_stl(random_mesh(np.random.default_rng(2), 3))


def ascii_stl_bytes():
    # 9 significant digits print a float32 so that it reads back exactly
    mesh = random_mesh(np.random.default_rng(3), 2)
    lines = ["solid s"]
    for normal, triangle in zip(mesh.normals, mesh.vertices):
        lines += [" facet normal " + " ".join(f"{float(v):.9g}" for v in normal),
                  "  outer loop"]
        lines += ["   vertex " + " ".join(f"{float(v):.9g}" for v in vertex)
                  for vertex in triangle]
        lines += ["  endloop", " endfacet"]
    return ("\n".join(lines + ["endsolid s"]) + "\n").encode("ascii")


@st.composite
def one_byte_changed(draw, data):
    """`data` with one byte substituted, deleted or inserted."""
    edit = draw(st.sampled_from(["substitute", "delete", "insert"]))
    at = draw(st.integers(0, len(data) - (edit != "insert")))
    if edit == "delete":
        return data[:at] + data[at + 1:]
    new = bytes([draw(st.integers(0, 255))])
    return data[:at] + new + data[at + (edit == "substitute"):]


def manifest_bytes(path):
    """A manifest at `path`, its sidecar and the grid files its rows name."""
    rows = [ds.ManifestRow("AAA001", 'comma, "quote"; semicolon', "g/AAA001.nrrd", "train"),
            ds.ManifestRow("AAB002", "plain text", "g/AAB002.nrrd", "val")]
    (path.parent / "g").mkdir()
    for row in rows:
        (path.parent / row.nrrd_path).write_bytes(nrrd_bytes())
    ds.write_manifest(ds.DatasetManifest(rows, {"seed": 7}), path)
    return path.read_bytes()


def read_manifest_bytes(path, data):
    path.write_bytes(data)
    return ds.read_manifest(path)


def load_index_bytes(path, data):
    path.write_bytes(data)
    return rt.load_index(path)


# name: (the codec's output, written at a path if it needs one; its reader;
# the error it refuses bad bytes with)
READERS = {
    "nrrd": (lambda _: nrrd_bytes(), lambda _, data: ds.read_nrrd(data), NrrdError),
    "checkpoint": (lambda _: checkpoint_bytes(),
                   lambda _, data: enc.parse_checkpoint(io.BytesIO(data)), EncoderError),
    "index": (index_bytes, load_index_bytes, RetrievalError),
    "manifest": (manifest_bytes, read_manifest_bytes, ManifestError),
    "binary stl": (lambda _: binary_stl_bytes(), lambda _, data: parse_stl(data), StlError),
    "ascii stl": (lambda _: ascii_stl_bytes(), lambda _, data: parse_stl(data), StlError),
}


@pytest.mark.parametrize("name", READERS)
def test_reader_refuses_one_changed_byte_with_its_own_error(name, tmp_path_factory):
    # load_index and read_manifest read a path, so every mutant overwrites one file
    path = tmp_path_factory.mktemp("mutants") / "mutant"
    write, read, error = READERS[name]
    data = write(path)
    read(path, data)  # the unchanged bytes read back

    @settings(max_examples=300, deadline=None, database=None)
    @given(mutant=one_byte_changed(data))
    def check(mutant):
        try:
            read(path, mutant)
        except error:
            pass

    check()
