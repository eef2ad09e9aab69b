"""Historical-shape gallery: embedding index, exact top-k text queries, and
human-viewable voxel previews (OBJ cubes, PGM slice stacks)."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoders as enc
from .dataset import Vocabulary, tokenize
from .errors import RetrievalError
from .geometry import VoxelGrid
from .geometry.stl import _CUBE_FACES
from .taxonomy import default_schema, parse_text, render_text
from .training import embed_shapes, pairwise_distances

DEFAULT_K = 8
INDEX_MAGIC = "rodfind-index"
# the index header's fields; the lists hold strings, one per gallery entry
_HEADER_TYPES = {"ids": list, "nrrd_paths": list, "texts": list,
                 "fingerprint": str, "resolution": int, "dim": int}


@dataclass
class ShapeIndex:
    """Immutable gallery: one unit-norm embedding per sample plus enough
    provenance to refuse cross-run queries."""

    ids: list[str]
    embeddings: np.ndarray  # (G, D) float32
    nrrd_paths: list[str]
    texts: list[str]
    fingerprint: str
    resolution: int

    def __post_init__(self):
        self.embeddings = np.ascontiguousarray(self.embeddings, dtype=np.float32)
        for name in ("embeddings", "nrrd_paths", "texts"):
            if len(getattr(self, name)) != len(self.ids):
                raise RetrievalError(f"index ids and {name} disagree in length")
        if len(set(self.ids)) != len(self.ids):
            raise RetrievalError("index contains duplicate sample ids")

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, ShapeIndex):
            return NotImplemented
        return (self.ids == other.ids
                and np.array_equal(self.embeddings, other.embeddings)
                and self.nrrd_paths == other.nrrd_paths
                and self.texts == other.texts
                and self.fingerprint == other.fingerprint
                and self.resolution == other.resolution)


@dataclass
class QueryResult:
    query_text: str
    k: int
    matches: list[tuple[str, float]]  # (sample id, distance), nondecreasing


def build_index(samples, checkpoint: enc.Checkpoint,
                nrrd_paths: dict[str, str] | None = None) -> ShapeIndex:
    """Embed every sample's grid with the checkpoint's shape encoder."""
    samples = list(samples)
    if not samples:
        raise RetrievalError("cannot build an index from an empty sample list")
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise RetrievalError(f"duplicate sample ids: {dupes}")
    resolution = checkpoint.shape.config.resolution
    for s in samples:
        if s.grid.resolution != resolution:
            raise RetrievalError(
                f"sample {s.id}: grid resolution {s.grid.resolution} does not "
                f"match the encoder's {resolution}")
    embeddings = embed_shapes(checkpoint.shape, samples)
    paths = [(nrrd_paths or {}).get(s.id, "") for s in samples]
    return ShapeIndex(ids, embeddings.astype(np.float32), paths,
                      [s.text for s in samples], checkpoint.fingerprint, resolution)


def save_index(index: ShapeIndex, path) -> None:
    header = {
        "format": INDEX_MAGIC,
        "ids": index.ids,
        "nrrd_paths": index.nrrd_paths,
        "texts": index.texts,
        "fingerprint": index.fingerprint,
        "resolution": index.resolution,
        "dim": int(index.embeddings.shape[1]),
        "dtype": "<f4",
    }
    blob = np.ascontiguousarray(index.embeddings, dtype="<f4").tobytes()
    Path(path).write_bytes(json.dumps(header, sort_keys=True).encode("utf-8")
                           + b"\n" + blob)


def load_index(path) -> ShapeIndex:
    """Read `save_index` output; malformed input raises RetrievalError."""
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise RetrievalError(f"{path}: not an index file")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise RetrievalError(f"{path}: index header is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != INDEX_MAGIC:
        raise RetrievalError(f"{path}: not a rodfind index")
    if header.get("dtype") != "<f4":
        raise RetrievalError(f"{path}: embedding dtype {header.get('dtype')!r}, "
                             "expected '<f4'")
    for key, kind in _HEADER_TYPES.items():
        value = header.get(key)
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(v, str) for v in value)):
            raise RetrievalError(f"{path}: index header field {key!r} is missing "
                                 f"or not a {kind.__name__}")
    blob = data[newline + 1:]
    count, dim = len(header["ids"]), header["dim"]
    expected = count * dim * 4
    if len(blob) != expected:
        raise RetrievalError(f"{path}: embedding block holds {len(blob)} bytes, "
                             f"expected {expected}")
    embeddings = np.frombuffer(blob, dtype="<f4").reshape(count, dim).copy()
    return ShapeIndex(header["ids"], embeddings, header["nrrd_paths"],
                      header["texts"], header["fingerprint"], header["resolution"])


def query(text: str, index: ShapeIndex, checkpoint: enc.Checkpoint,
          k: int = DEFAULT_K, schema=None, lenient: bool = True) -> QueryResult:
    """Exact exhaustive nearest-neighbor lookup for a textual requirement.

    The text must parse against the schema (leniently by default); the
    canonical re-rendering is what gets embedded, so synonyms of sentence
    order do not perturb the lookup. Cross-checkpoint queries are refused.
    """
    if len(index) == 0:
        raise RetrievalError("index is empty")
    if k < 1:
        raise RetrievalError(f"k must be at least 1, got {k}")
    if checkpoint.fingerprint != index.fingerprint:
        raise RetrievalError(
            "index was built from a different checkpoint "
            f"({index.fingerprint[:12]}... vs {checkpoint.fingerprint[:12]}...); "
            "embeddings from different training runs are not comparable")
    schema = schema or default_schema()
    spec = parse_text(text, schema, lenient=lenient)
    canonical = render_text(spec, schema)

    vocab = Vocabulary(dict(checkpoint.vocab_words))
    seq = tokenize(canonical, vocab, checkpoint.text.config.max_len)
    emb = enc.text_forward(checkpoint.text, seq.tokens[None, :],
                           np.array([seq.true_length]))
    dists = pairwise_distances(emb, index.embeddings)[0]

    if k > len(index):
        warnings.warn(f"k={k} exceeds the gallery size {len(index)}; clamping")
        k = len(index)
    # only entries at or below the k-th smallest distance can place, ties
    # at it included; order just those by (distance, id)
    kth = np.partition(dists, k - 1)[k - 1]
    near = np.flatnonzero(dists <= kth)
    order = sorted(near, key=lambda j: (dists[j], index.ids[j]))
    matches = [(index.ids[j], float(dists[j])) for j in order[:k]]
    return QueryResult(text, k, matches)


# ---------------------------------------------------------------------------
# previews

_CORNER_INDEX = {(dx, dy, dz): dx + 2 * dy + 4 * dz
                 for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)}


def export_preview(grid: VoxelGrid, format: str = "obj") -> bytes:
    """OBJ: one unwelded unit cube (8 vertices, 12 triangles) per occupied
    voxel. PGM: one binary P5 image of width N and height N*N, the z slices
    stacked top to bottom at full intensity."""
    if format == "obj":
        lines = ["# rodfind voxel preview"]
        occupied = np.argwhere(grid.occupancy == 1)
        faces = []
        base = 1  # OBJ indices are 1-based
        for ix, iy, iz in occupied:
            for dz in (0, 1):
                for dy in (0, 1):
                    for dx in (0, 1):
                        lines.append(f"v {ix + dx} {iy + dy} {iz + dz}")
            for _, tri_a, tri_b in _CUBE_FACES:
                for tri in (tri_a, tri_b):
                    a, b, c = (base + _CORNER_INDEX[corner] for corner in tri)
                    faces.append(f"f {a} {b} {c}")
            base += 8
        lines.extend(faces)
        return ("\n".join(lines) + "\n").encode("ascii")
    if format == "pgm_slices":
        n = grid.resolution
        header = f"P5\n{n} {n * n}\n255\n".encode("ascii")
        # x-fastest order: one image row per (y, z), the z slices stacked
        return header + (grid.linear() * 255).astype(np.uint8).tobytes()
    raise RetrievalError(f"unknown preview format {format!r}")
