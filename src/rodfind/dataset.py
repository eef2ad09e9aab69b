"""Paired text/voxel corpus: variant generation from 15 base rods, NRRD and
CSV codecs, vocabulary building, tokenization, and train/val splitting."""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, ManifestError, NrrdError
from .geometry import (
    GridMeta,
    VoxelGrid,
    build_solid,
    concrete_sizes,
    voxelize_solid,
)
from .taxonomy import (
    FeatureSchema,
    LinkingRodSpec,
    SizeClass,
    default_schema,
    render_text,
    validate_spec,
)

PAD_ID = 0
UNK_ID = 1
MAX_WORDS = 256
DEFAULT_MIN_COUNT = 3  # "appeared more than twice"
PER_BASE_RANGE = (48, 64)

_STRIP = str.maketrans("", "", ";.,")


class DatasetWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Samples

@dataclass
class Sample:
    id: str
    spec: LinkingRodSpec
    text: str
    grid: VoxelGrid


# ---------------------------------------------------------------------------
# Vocabulary and tokenization

def normalize_words(text: str) -> list[str]:
    """Whitespace tokens after stripping ';' '.' ',' and lowercasing."""
    return text.lower().translate(_STRIP).split()


@dataclass
class Vocabulary:
    """word -> id table; ids 0/1 reserved for PAD/UNK, contiguous from 0."""

    word_to_id: dict[str, int]
    min_count: int = DEFAULT_MIN_COUNT

    @property
    def size(self) -> int:
        return 2 + len(self.word_to_id)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)


def build_vocabulary(texts, min_count: int = DEFAULT_MIN_COUNT) -> Vocabulary:
    """Words occurring at least `min_count` times, ids ordered by descending
    count then lexicographically, starting after the reserved ids."""
    counts = Counter()
    for text in texts:
        counts.update(normalize_words(text))
    kept = sorted((w for w, c in counts.items() if c >= min_count),
                  key=lambda w: (-counts[w], w))
    return Vocabulary({w: i + 2 for i, w in enumerate(kept)}, min_count)


@dataclass
class TokenSequence:
    """Fixed-length token ids, right-padded with PAD beyond true_length."""

    tokens: np.ndarray
    true_length: int

    def __post_init__(self):
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.int32)
        if self.tokens.ndim != 1:
            raise DatasetError("token sequence must be one-dimensional")
        if not 0 <= self.true_length <= len(self.tokens):
            raise DatasetError("true_length out of range")
        if (self.tokens[self.true_length:] != PAD_ID).any():
            raise DatasetError("tokens beyond true_length must be PAD")

    def __eq__(self, other):
        if not isinstance(other, TokenSequence):
            return NotImplemented
        return (self.true_length == other.true_length
                and np.array_equal(self.tokens, other.tokens))


def tokenize(text: str, vocab: Vocabulary, max_len: int = MAX_WORDS) -> TokenSequence:
    words = normalize_words(text)[:max_len]
    ids = np.full(max_len, PAD_ID, dtype=np.int32)
    for i, word in enumerate(words):
        ids[i] = vocab.id_of(word)
    return TokenSequence(ids, len(words))


# ---------------------------------------------------------------------------
# NRRD codec (bit-exact, minimal header)

_NRRD_MAGIC = re.compile(rb"^NRRD000[1-9]$")


def write_nrrd(grid: VoxelGrid) -> bytes:
    n = grid.resolution
    header = (f"NRRD0004\ntype: uint8\ndimension: 3\nsizes: {n} {n} {n}\n"
              f"encoding: raw\n\n")
    return header.encode("ascii") + grid.linear().tobytes()


def read_nrrd(data: bytes) -> VoxelGrid:
    sep = data.find(b"\n\n")
    if sep < 0:
        raise NrrdError("missing blank line between header and payload")
    header_lines = data[:sep].split(b"\n")
    payload = data[sep + 2:]

    if not _NRRD_MAGIC.match(header_lines[0].strip()):
        raise NrrdError(f"bad magic line {header_lines[0]!r}")
    fields = {}
    for raw in header_lines[1:]:
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("#") or ":=" in line:
            continue  # comments and key/value metadata are ignored
        if ":" not in line:
            raise NrrdError(f"malformed header line {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip().lower()] = value.strip()

    kind = fields.get("type", "")
    if kind not in ("uint8", "uchar", "unsigned char"):
        raise NrrdError(f"unsupported field 'type': {kind!r} (need uint8)")
    if fields.get("dimension") != "3":
        raise NrrdError(f"unsupported field 'dimension': {fields.get('dimension')!r} (need 3)")
    if fields.get("encoding") != "raw":
        raise NrrdError(f"unsupported field 'encoding': {fields.get('encoding')!r} (need raw)")
    try:
        sizes = [int(s) for s in fields["sizes"].split()]
    except (KeyError, ValueError):
        raise NrrdError("missing or malformed field 'sizes'") from None
    if len(sizes) != 3 or len(set(sizes)) != 1:
        raise NrrdError(f"unsupported field 'sizes': {sizes} (need a cube)")
    n = sizes[0]
    expected = n ** 3
    if len(payload) != expected:
        raise NrrdError(f"payload size mismatch: sizes declare {expected} bytes, "
                        f"got {len(payload)}")
    occ = np.frombuffer(payload, dtype=np.uint8)
    if not np.isin(occ, (0, 1)).all():
        raise NrrdError("occupancy payload contains values other than 0/1")
    # payload is x-fastest; unravel into [ix, iy, iz]
    return VoxelGrid(n, occ.reshape((n, n, n), order="F").copy())


# ---------------------------------------------------------------------------
# CSV manifest

MANIFEST_COLUMNS = ("id", "text", "nrrd_path", "split")
SPLIT_TAGS = ("train", "val")


@dataclass
class ManifestRow:
    id: str
    text: str
    nrrd_path: str
    split: str


@dataclass
class DatasetManifest:
    rows: list[ManifestRow]
    meta: dict = field(default_factory=dict)

    def ids(self) -> list[str]:
        return [r.id for r in self.rows]


def _check_rows(rows):
    seen = set()
    for row in rows:
        if row.id in seen:
            raise ManifestError(f"duplicate sample id {row.id!r}")
        seen.add(row.id)
        if row.split not in SPLIT_TAGS:
            raise ManifestError(f"row {row.id!r}: unknown split tag {row.split!r}")


def write_manifest(manifest: DatasetManifest | list, dest) -> None:
    """Write rows as CSV (UTF-8, LF, RFC quoting); non-empty metadata goes to
    a `<dest>.meta.json` sidecar when dest is a path."""
    if isinstance(manifest, DatasetManifest):
        rows, meta = manifest.rows, manifest.meta
    else:
        rows, meta = list(manifest), {}
    _check_rows(rows)

    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow([row.id, row.text, row.nrrd_path, row.split])

    if hasattr(dest, "write"):
        emit(dest)
        return
    path = Path(dest)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        emit(stream)
    if meta:
        path.with_name(path.name + ".meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_manifest(source, check_paths: bool = True) -> DatasetManifest:
    if hasattr(source, "read"):
        stream = source
        base_dir = Path(".")
        meta_path = None
    else:
        path = Path(source)
        stream = open(path, encoding="utf-8", newline="")
        base_dir = path.parent
        meta_path = path.with_name(path.name + ".meta.json")
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError("manifest is empty") from None
        if tuple(header) != MANIFEST_COLUMNS:
            raise ManifestError(
                f"bad manifest header {header}; expected {list(MANIFEST_COLUMNS)}")
        rows = []
        for record in reader:
            if len(record) != 4:
                raise ManifestError(f"manifest row has {len(record)} fields: {record}")
            rows.append(ManifestRow(*record))
    finally:
        if stream is not source:
            stream.close()

    _check_rows(rows)
    if check_paths:
        missing = [r.nrrd_path for r in rows if not (base_dir / r.nrrd_path).exists()]
        if missing:
            raise ManifestError(
                f"{len(missing)} grid file(s) missing: {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
    meta = {}
    if meta_path is not None and meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return DatasetManifest(rows, meta)


# ---------------------------------------------------------------------------
# The fifteen base rods

def _hole(separate=False, convex=False):
    struct = {}
    if separate:
        struct["type"] = "separate type"
    if convex:
        struct["additional feature"] = "inner edge convex"
    return struct


def _base(shaft, pair, hole_a=None, hole_b=None, shaft_hole=None):
    structure = {"link": {"main structure": "binary link"}}
    shaft_struct = {"main structure": shaft}
    if shaft == "arc-shaped vertical slab":
        shaft_struct["cross section"] = "rectangle"
    if shaft_hole:
        shaft_struct["additional feature"] = "hole structure"
        shaft_struct["hole structure direction"] = shaft_hole
    structure["shaft"] = shaft_struct
    for name, struct in zip(pair, (hole_a or {}, hole_b or {})):
        if struct:
            structure[name] = struct
    # hole entities must exist even without structure attributes; presence is
    # carried by their (later) size assignments, so record the pair here
    return structure, pair


_FS = ("first pivot hole", "second pivot hole")
_LS = ("larger pivot hole", "smaller pivot hole")
_LR = ("left-side pivot hole", "right-side pivot hole")

_BASE_TABLE = [
    _base("cuboid", _FS),
    _base("arc-shaped vertical slab", _LR),
    _base("cuboid", _LS, _hole(separate=True, convex=True), _hole(separate=True)),
    _base("cuboid", _FS, shaft_hole="y direction"),
    _base("cuboid", _FS, _hole(separate=True), _hole(separate=True),
          shaft_hole="z direction"),
    _base("cuboid", _LR, _hole(convex=True), _hole(convex=True)),
    _base("cuboid", _LR, _hole(separate=True), _hole(separate=True),
          shaft_hole="x direction"),
    _base("arc-shaped vertical slab", _LS, _hole(separate=True), _hole(separate=True)),
    _base("arc-shaped vertical slab", _FS, _hole(convex=True), _hole(convex=True),
          shaft_hole="y direction"),
    _base("arc-shaped vertical slab", _FS),
    _base("arc-shaped vertical slab", _LS, None, _hole(convex=True)),
    _base("cuboid", _FS, _hole(separate=True), _hole(convex=True)),
    _base("arc-shaped vertical slab", _LS, shaft_hole="y direction"),
    _base("cuboid", _LR, _hole(separate=True, convex=True),
          _hole(separate=True, convex=True), shaft_hole="y direction"),
    _base("arc-shaped vertical slab", _LR, _hole(separate=True), _hole(separate=True)),
]


def base_structures(count: int = 15) -> list[tuple[dict, tuple[str, str]]]:
    """Structure assignments of the first `count` shipped base rods."""
    if not 1 <= count <= len(_BASE_TABLE):
        raise DatasetError(f"between 1 and {len(_BASE_TABLE)} bases are shipped, "
                           f"requested {count}")
    return [({e: dict(a) for e, a in structure.items()}, pair)
            for structure, pair in _BASE_TABLE[:count]]


def base_prefix(index: int) -> str:
    if not 0 <= index < 26:
        raise DatasetError("base index out of range for AAx prefixes")
    return "AA" + chr(ord("A") + index)


# ---------------------------------------------------------------------------
# Variant generation

def _size_slots(structure, pair, schema):
    """Ordered (entity, attribute) slots for every applicable size attribute."""
    slots = []
    present = set(structure) | set(pair or ())
    for ent in schema.entities:
        if ent.name not in present:
            continue
        struct = structure.get(ent.name, {})
        for attr in ent.attributes:
            if attr.kind == "size" and attr.applies(struct):
                slots.append((ent.name, attr.name))
    return slots


def _pair_style(pair, schema):
    if not pair:
        return None
    for style, names in schema.hole_pairs:
        if tuple(names) == tuple(pair):
            return style
    raise DatasetError(f"{pair} is not a known hole-pair")


def enumerate_size_combos(structure, pair, schema=None):
    """All admissible size-class combinations, lexicographic over
    (slot order, class order)."""
    schema = schema or default_schema()
    slots = _size_slots(structure, pair, schema)
    style = _pair_style(pair, schema)
    classes = list(SizeClass)
    # digits[i, r] is digit i of r in base len(classes), most significant
    # first, so r runs over the combinations in lexicographic order
    digits = np.indices((len(classes),) * len(slots), dtype=np.int8).reshape(
        len(slots), len(classes) ** len(slots))
    if style is not None:
        a, b = pair
        inner_a, inner_b, outer_a, outer_b = (
            digits[slots.index((entity, attr))]
            for attr in ("inner diameter", "outer diameter") for entity in (a, b))
        if style == "larger_smaller":
            # keep class and millimetre orderings consistent with the naming
            digits = digits[:, (inner_a > inner_b) & (outer_a >= outer_b)]
        else:
            digits = digits[:, inner_a == inner_b]
    # zipping the slots' class columns builds each tuple once; with no slots
    # the product holds one empty combination, which zip would not yield
    columns = np.array(classes, dtype=object)[digits]
    combos = list(zip(*columns)) if slots else [()]
    return slots, combos


def _distribute(total, groups):
    base, extra = divmod(total, groups)
    return [base + (1 if i < extra else 0) for i in range(groups)]


def generate_variants(bases=None, per_base=None, total=None, seed: int = 0,
                      schema: FeatureSchema | None = None,
                      resolution: int = 16, with_grids: bool = True) -> list[Sample]:
    """Generate the paired corpus.

    `bases` is a count (first n shipped bases) or a list of (structure, pair)
    entries. Either pass `per_base` (same count for every base) or `total`
    (distributed as evenly as possible). Each variant keeps its base's
    structure and differs in the size-class combination; combinations are
    unique within a base, so every text is unique. Deterministic for a seed.
    """
    schema = schema or default_schema()
    if bases is None:
        bases = 15
    if isinstance(bases, int):
        bases = base_structures(bases)
    if total is not None and per_base is not None:
        raise DatasetError("pass either per_base or total, not both")
    if total is not None:
        counts = _distribute(int(total), len(bases))
    else:
        if per_base is None:
            per_base = PER_BASE_RANGE[0]
        counts = [int(per_base)] * len(bases)
    lo, hi = PER_BASE_RANGE
    if any(c > hi for c in counts):
        # 15 bases at <= 64 variants cannot reach 1000; the even distribution
        # necessarily exceeds the nominal per-base ceiling
        warnings.warn(DatasetWarning(
            f"per-base counts {sorted(set(counts))} exceed the usual "
            f"[{lo}, {hi}] range"))

    samples = []
    for index, ((structure, pair), count) in enumerate(zip(bases, counts)):
        slots, combos = enumerate_size_combos(structure, pair, schema)
        if count > len(combos):
            raise DatasetError(
                f"base {index}: requested {count} variants but only "
                f"{len(combos)} distinct size-class combinations exist")
        if count < len(combos):
            rng = np.random.default_rng([seed, index])
            chosen = sorted(rng.permutation(len(combos))[:count])
        else:
            chosen = range(len(combos))
        prefix = base_prefix(index)
        for serial, combo_index in enumerate(chosen, start=1):
            combo = combos[combo_index]
            sizes: dict[str, dict[str, SizeClass]] = {}
            for (entity, attr), cls in zip(slots, combo):
                sizes.setdefault(entity, {})[attr] = cls
            spec = LinkingRodSpec(
                {e: dict(a) for e, a in structure.items()}, sizes)
            report = validate_spec(spec, schema)
            if not report.ok:
                raise DatasetError(
                    f"base {index} produced an invalid variant: {report.violations}")
            sample_id = f"{prefix}{serial:03d}"
            text = render_text(spec, schema)
            grid = None
            if with_grids:
                solid = build_solid(spec, concrete_sizes(spec, schema), schema)
                grid = voxelize_solid(solid, resolution, source_id=sample_id)
            samples.append(Sample(sample_id, spec, text, grid))
    return samples


# ---------------------------------------------------------------------------
# Train/validation split

def _structure_key(spec: LinkingRodSpec):
    return tuple(sorted((e, tuple(sorted(attrs.items())))
                        for e, attrs in spec.structure.items()))


def split_samples(samples: list[Sample], val_fraction: float, seed: int = 0):
    """Disjoint, exhaustive, deterministic split, stratified by base structure.

    The validation set has exactly round(n * val_fraction) members, allocated
    across bases by largest remainder; a base never loses every sample to
    validation, and single-sample bases go to train with a warning.
    """
    if not 0 < val_fraction < 1:
        raise DatasetError(f"val_fraction must be in (0, 1), got {val_fraction}")
    groups: dict = {}
    for i, sample in enumerate(samples):
        groups.setdefault(_structure_key(sample.spec), []).append(i)

    total_val = int(round(len(samples) * val_fraction))
    keys = sorted(groups)  # deterministic group order
    quotas = {}
    remainders = []
    for key in keys:
        size = len(groups[key])
        if size == 1:
            warnings.warn(DatasetWarning(
                "a base has a single sample; assigning it to train"))
            quotas[key] = 0
            continue
        ideal = size * val_fraction
        quota = min(int(ideal), size - 1)
        quotas[key] = quota
        remainders.append((-(ideal - int(ideal)), key))
    remainders.sort()
    shortfall = total_val - sum(quotas.values())
    while shortfall > 0:
        progressed = False
        for _, key in remainders:
            if shortfall <= 0:
                break
            if quotas[key] < len(groups[key]) - 1:
                quotas[key] += 1
                shortfall -= 1
                progressed = True
        if not progressed:
            break  # every base capped; accept a smaller validation set

    rng = np.random.default_rng(seed)
    val_indices = set()
    for key in keys:
        members = groups[key]
        take = quotas[key]
        if take:
            picked = rng.permutation(len(members))[:take]
            val_indices.update(members[p] for p in picked)
    train = [s for i, s in enumerate(samples) if i not in val_indices]
    val = [s for i, s in enumerate(samples) if i in val_indices]
    return train, val
