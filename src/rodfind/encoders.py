"""The two encoders of the joint embedding space.

Text: token embedding -> three width-3 convolutions at the embedding width
-> a fourth expanding to twice the width -> masked GRU (mean over valid
states) -> two dense layers -> L2 normalization. A token batch is (B, L)
with B >= 1 and one length per row, 0 <= length <= L; anything else raises
EncoderError.

Shape: seven 3-d convolutions (four shape-preserving at 4 channels, then a
stride-3 stack at 64/128/256 channels), max pool, dense layer, L2
normalization. Each stride-3 layer pads its input edge D by D % 3, the
least pad whose windows tile the padded grid, so every voxel of the input
sits in one window. From the 16^3 grid the pads are (1, 0, 2) at every
depth, landing on 2^3, and the pool is the max over its eight positions.
The last convolution's input is already 2^3: padded by 2, each of its
stride-3 windows holds one input voxel, at the same position as the
window's output, seen through one tap (tap 2 - 2i on an axis where the
position is i). Its other 19 taps only ever multiply padding, so the layer
stores just the live ones, as eight per-position Cin -> Cout maps
(`live_taps`). The initializer still draws that layer's full 3x3x3 kernel
and keeps the live taps, so every weight starts where it did when all 27
were stored and the random stream of the layers after it is unchanged.
A shape batch is a (B, 16, 16, 16) occupancy array with B >= 1 (callers
stack `VoxelGrid.occupancy`); anything else raises EncoderError.

Each apply returns the embeddings and a tape, one (name, backward, cache,
parameter names) entry per layer in the order the forward ran them; a
backward replays it from the last entry to the first, so the layer order
is written once. Each forward returns the embeddings alone.

Parameters: each encoder keeps all of its parameters in one contiguous
buffer (`Params.flat`) with named views into it (`Params.arrays`). The
config's `layout()` fixes the views' names, shapes and order; that order is
also the order of the checkpoint's bytes and of the initializer's random
draws, and a backward returns its gradient in a buffer with the same layout.
Updates write into the buffer in place and never rebind it, so the views
stay valid.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .errors import EncoderError


@dataclass(frozen=True)
class TextEncoderConfig:
    vocab_size: int
    embed_dim: int = 128
    conv_channels: tuple[int, int, int, int] = (128, 128, 128, 256)
    gru_hidden: int = 256
    fc_hidden: int = 256
    out_dim: int = 128
    max_len: int = 256

    def __post_init__(self):
        if self.vocab_size < 2:
            raise EncoderError("vocab_size must be at least 2 (PAD and UNK)")
        if len(self.conv_channels) != 4:
            raise EncoderError("the text encoder has exactly four convolution layers")

    def layout(self):
        """(name, shape, fan_in) of every parameter in buffer order; fan_in
        is None for the zero-initialized biases."""
        e, h, f = self.embed_dim, self.gru_hidden, self.fc_hidden
        # a lookup has a single active input, so fan_in is 1 (table entries U(-1, 1))
        items = [("embed", (self.vocab_size, e), 1)]
        cin = e
        for i, cout in enumerate(self.conv_channels, start=1):
            items += [(f"conv{i}_w", (cout, cin, 3), cin * 3), (f"conv{i}_b", (cout,), None)]
            cin = cout
        items += [("gru_w_ih", (3 * h, cin), cin), ("gru_w_hh", (3 * h, h), h),
                  ("gru_b_ih", (3 * h,), None), ("gru_b_hh", (3 * h,), None),
                  ("fc1_w", (f, h), h), ("fc1_b", (f,), None),
                  ("fc2_w", (self.out_dim, f), f), ("fc2_b", (self.out_dim,), None)]
        return items


GRID_EDGE = 16  # the shape encoder reads GRID_EDGE^3 occupancy grids


@dataclass(frozen=True)
class ShapeEncoderConfig:
    num_conv_layers: int = 7
    front_channels: int = 4
    back_channels: tuple[int, int, int] = (64, 128, 256)
    out_dim: int = 128

    def __post_init__(self):
        if not 3 <= self.num_conv_layers <= 7:
            raise EncoderError("num_conv_layers must be between 3 and 7")
        if len(self.back_channels) != 3:
            raise EncoderError("the stride-3 stack has exactly three layers")

    def layer_plan(self):
        """(in_channels, out_channels, stride, pad) per convolution layer; a
        stride-3 layer pads its input edge D by D % 3."""
        plan, channels, edge = [], 1, GRID_EDGE
        for _ in range(self.num_conv_layers - 3):
            plan.append((channels, self.front_channels, 1, 1))
            channels = self.front_channels
        for out_channels in self.back_channels:
            pad = edge % 3
            plan.append((channels, out_channels, 3, pad))
            channels, edge = out_channels, (edge + 2 * pad) // 3
        return plan

    def layout(self):
        """(name, shape, fan_in) of every parameter in buffer order; fan_in
        is None for the zero-initialized biases. The last convolution keeps
        only its live taps, as (8, Cin, Cout); its fan_in is still that of
        the full kernel it is drawn from."""
        items = []
        plan = self.layer_plan()
        for i, (cin, cout, _, _) in enumerate(plan, start=1):
            shape = (8, cin, cout) if i == len(plan) else (cout, cin, 3, 3, 3)
            items += [(f"conv{i}_w", shape, cin * 27), (f"conv{i}_b", (cout,), None)]
        flat = self.back_channels[-1]
        items += [("fc_w", (self.out_dim, flat), flat), ("fc_b", (self.out_dim,), None)]
        return items


class Params:
    """One encoder's parameters: a contiguous buffer `flat` and `arrays`,
    named views into it in the order of `config.layout()`."""

    def __init__(self, config, flat: np.ndarray):
        self.config = config
        self.flat = flat
        self.arrays = self.views(flat)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into `flat`, a buffer laid out like this encoder's."""
        if flat.shape != (_size(self.config),):
            raise EncoderError(f"parameter buffer has shape {flat.shape}, the "
                               f"layout needs ({_size(self.config)},)")
        views, offset = {}, 0
        for name, shape, _ in self.config.layout():
            size = math.prod(shape)
            views[name] = flat[offset:offset + size].reshape(shape)
            offset += size
        return views


def _size(config) -> int:
    return sum(math.prod(shape) for _, shape, _ in config.layout())


def live_taps(kernel):
    """The taps of a (Cout, Cin, 3, 3, 3) kernel that a stride-3, pad-2
    convolution of a 2^3 input reaches, as the (8, Cin, Cout) maps of the
    eight positions in C order: position (i, j, k) sees tap
    (2 - 2i, 2 - 2j, 2 - 2k)."""
    cout, cin = kernel.shape[:2]
    return kernel[:, :, ::-2, ::-2, ::-2].reshape(cout, cin, 8).transpose(2, 1, 0)


# ---------------------------------------------------------------------------
# initialization

def init_params(vocab_size: int, seed: int,
                text_config: TextEncoderConfig | None = None,
                shape_config: ShapeEncoderConfig | None = None,
                dtype=np.float32):
    """Seeded initialization of both encoders: weights uniform within
    +-sqrt(1/fan_in) per layer, drawn in layout order (text, then shape),
    biases zero."""
    rng = np.random.default_rng(seed)
    text_config = text_config or TextEncoderConfig(vocab_size)
    if text_config.vocab_size != vocab_size:
        raise EncoderError("text_config.vocab_size disagrees with vocab_size")
    shape_config = shape_config or ShapeEncoderConfig()
    taps = f"conv{shape_config.num_conv_layers}_w"
    out = []
    for config in (text_config, shape_config):
        params = Params(config, np.zeros(_size(config), dtype=dtype))
        for name, shape, fan_in in config.layout():
            if fan_in is None:
                continue
            bound = np.sqrt(1.0 / fan_in)
            if config is shape_config and name == taps:
                _, cin, cout = shape
                params.arrays[name][...] = live_taps(
                    rng.uniform(-bound, bound, size=(cout, cin, 3, 3, 3)))
            else:
                params.arrays[name][...] = rng.uniform(-bound, bound, size=shape)
        out.append(params)
    return tuple(out)


# ---------------------------------------------------------------------------
# the tape

def _recorder(arrays):
    """A tape and its `step(name, forward, backward, *inputs, params=())`,
    which returns y of forward(*inputs, *the named parameters) -> (y, cache)
    and records (name, backward, cache, params). The applies look `nn`'s
    functions up as they run, so a tape holds what `nn` held then."""
    tape = []

    def step(name, forward, backward, *inputs, params=()):
        y, cache = forward(*inputs, *(arrays[p] for p in params))
        tape.append((name, backward, cache, params))
        return y

    return tape, step


def replay(params: Params, tape, d_emb) -> np.ndarray:
    """Gradient of every parameter, in a buffer laid out like `params.flat`:
    an apply's tape run backwards from `d_emb`. A step with parameters
    returns (dx, *their grads), one without returns dx."""
    grad = np.empty_like(params.flat)
    g = params.views(grad)
    dy = d_emb
    for _, backward, cache, names in reversed(tape):
        if names:
            dy, *grads = backward(cache, dy)
            for name, value in zip(names, grads):
                g[name][...] = value
        else:
            dy = backward(cache, dy)
    return grad


# one name per encoder, for its callers and for tracers to wrap apart
text_backward = shape_backward = replay


# ---------------------------------------------------------------------------
# text pipeline

def _token_matrix(tokens, lengths, config):
    ids = np.ascontiguousarray(tokens, dtype=np.int64)
    if ids.ndim != 2:
        raise EncoderError("token batch must be (batch, length)")
    rows, L = ids.shape
    if rows == 0:
        raise EncoderError("token batch is empty")
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if lengths.shape != (rows,):
        raise EncoderError(f"need one length per row: {rows} rows, lengths of "
                           f"shape {lengths.shape}")
    bad_lengths = lengths[(lengths < 0) | (lengths > L)]
    if bad_lengths.size:
        raise EncoderError(f"length {int(bad_lengths[0])} out of range [0, {L}]")
    bad_ids = ids[(ids < 0) | (ids >= config.vocab_size)]
    if bad_ids.size:
        raise EncoderError(f"token id {int(bad_ids[0])} out of range for "
                           f"vocabulary of size {config.vocab_size}")
    # regions past every sample's length cannot influence the embedding:
    # keep a 3-token margin so the four width-3 convolutions see identical
    # neighborhoods as in the full-length evaluation
    keep = int(min(L, max(1, lengths.max() + 4)))
    return ids[:, :keep], lengths


def text_apply(params: Params, tokens, lengths):
    """(embeddings, tape) of a token batch."""
    ids, lengths = _token_matrix(tokens, lengths, params.config)
    tape, step = _recorder(params.arrays)
    x = step("embed", nn.embedding_forward, nn.embedding_backward, ids, lengths,
             params=("embed",))
    for i in range(1, len(params.config.conv_channels) + 1):
        x = step(f"conv{i}", nn.conv1d_forward, nn.conv1d_backward, x,
                 params=(f"conv{i}_w", f"conv{i}_b"))
        x = step(f"relu{i}", nn.relu_forward, nn.relu_backward, x)
    x = step("gru", nn.gru_forward, nn.gru_backward, x, lengths,
             params=("gru_w_ih", "gru_w_hh", "gru_b_ih", "gru_b_hh"))
    x = step("fc1", nn.linear_forward, nn.linear_backward, x, params=("fc1_w", "fc1_b"))
    x = step("fc1_relu", nn.relu_forward, nn.relu_backward, x)
    x = step("fc2", nn.linear_forward, nn.linear_backward, x, params=("fc2_w", "fc2_b"))
    y = step("norm", nn.l2_normalize_forward, nn.l2_normalize_backward, x)
    if not np.isfinite(y).all():
        raise EncoderError("text encoder produced a non-finite embedding")
    return y, tape


def text_forward(params: Params, tokens, lengths) -> np.ndarray:
    """Embed a token batch; rows are unit norm."""
    return text_apply(params, tokens, lengths)[0]


# ---------------------------------------------------------------------------
# shape pipeline

def _grid_batch(grids, dtype):
    batch = np.asarray(grids)
    if batch.size == 0:
        raise EncoderError("shape batch is empty")
    if batch.ndim != 4 or batch.shape[1:] != (GRID_EDGE,) * 3:
        raise EncoderError(f"shape batch must be (batch, {GRID_EDGE}, {GRID_EDGE}, "
                           f"{GRID_EDGE}), got {batch.shape}")
    return batch.astype(dtype)[..., None]


def shape_apply(params: Params, grids):
    """(embeddings, tape) of a (B, 16, 16, 16) occupancy batch."""
    x = _grid_batch(grids, params.flat.dtype)
    tape, step = _recorder(params.arrays)
    plan = params.config.layer_plan()
    for i, (_, _, stride, pad) in enumerate(plan, start=1):
        names = (f"conv{i}_w", f"conv{i}_b")
        if i == len(plan):
            x = step(f"conv{i}", nn.position_linear_forward, nn.position_linear_backward,
                     x, params=names)
        else:
            # the first layer's input is the grid: no gradient to pass on
            backward = (nn.conv3d_backward if i > 1
                        else functools.partial(nn.conv3d_backward, input_grad=False))
            x = step(f"conv{i}", lambda x, w, b: nn.conv3d_forward(x, w, b, stride, pad),
                     backward, x, params=names)
        x = step(f"relu{i}", nn.relu_forward, nn.relu_backward, x)
    x = step("pool", nn.maxpool3d_forward, nn.maxpool3d_backward, x)
    x = step("fc", nn.linear_forward, nn.linear_backward, x, params=("fc_w", "fc_b"))
    y = step("norm", nn.l2_normalize_forward, nn.l2_normalize_backward, x)
    if not np.isfinite(y).all():
        raise EncoderError("shape encoder produced a non-finite embedding")
    return y, tape


def shape_forward(params: Params, grids) -> np.ndarray:
    """Embed a (B, 16, 16, 16) occupancy batch; rows are unit norm."""
    return shape_apply(params, grids)[0]


# ---------------------------------------------------------------------------
# checkpoints: one JSON metadata line, then each encoder's buffer (text,
# shape) as little-endian float32 bytes. The header holds the two configs,
# the vocabulary and the meta; each config's layout gives its buffer's
# parameters, shapes and order, so the header lists no offsets

# version 3 also listed every parameter's offset in the header, version 2
# padded the middle stride-3 layer by 1, and version 1 also kept all 27 taps
# of the last; a reader checks one format, and no pad is in the header, so
# every older version is refused
CHECKPOINT_VERSION = 4


@dataclass
class Checkpoint:
    text: Params
    shape: Params
    vocab_words: dict[str, int]
    meta: dict = field(default_factory=dict)
    fingerprint: str = ""


def _config_from_json(cls, data):
    """A config from its JSON object. Every field is an int or a tuple of
    ints, which JSON gives as a list; a float or a bool is refused as either,
    though it would compare equal to an int in every later check."""
    tuples = {f.name for f in dataclasses.fields(cls) if f.type.startswith("tuple")}
    values = {}
    for key, value in data.items():
        if key in tuples:
            if not (isinstance(value, list) and all(type(v) is int for v in value)):
                raise EncoderError(f"checkpoint {cls.__name__}.{key} is {value!r}, "
                                   "not a list of integers")
            value = tuple(value)
        elif type(value) is not int:
            raise EncoderError(f"checkpoint {cls.__name__}.{key} is {value!r}, "
                               "not an integer")
        values[key] = value
    return cls(**values)


def checkpoint_bytes(text: Params, shape: Params,
                     vocab_words: dict[str, int], meta: dict | None = None) -> bytes:
    header = {
        "format": "rodfind-checkpoint",
        "version": CHECKPOINT_VERSION,
        "text_config": dataclasses.asdict(text.config),
        "shape_config": dataclasses.asdict(shape.config),
        "vocab": vocab_words,
        "meta": meta or {},
    }
    return b"".join([json.dumps(header, sort_keys=True).encode("utf-8"), b"\n",
                     text.flat.astype("<f4", copy=False),
                     shape.flat.astype("<f4", copy=False)])


def save_checkpoint(path, text, shape, vocab_words, meta=None) -> str:
    data = checkpoint_bytes(text, shape, vocab_words, meta)
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as stream:
        return parse_checkpoint(stream)


def parse_checkpoint(stream) -> Checkpoint:
    """Read `checkpoint_bytes` output from a binary stream (an open file, or
    bytes wrapped in `io.BytesIO`); malformed input raises EncoderError.

    The header line is read first, then each encoder's buffer straight into
    its array, hashing every byte on the way for the fingerprint, so the
    stream's bytes are never held whole."""
    line = stream.readline()
    if not line.endswith(b"\n"):
        raise EncoderError("checkpoint is missing its metadata line")
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise EncoderError(f"checkpoint metadata is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != "rodfind-checkpoint":
        raise EncoderError("not a rodfind checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise EncoderError(f"checkpoint version {header.get('version')!r} is not "
                           f"supported; this build reads version {CHECKPOINT_VERSION}")
    try:
        text_config = _config_from_json(TextEncoderConfig, header["text_config"])
        shape_config = _config_from_json(ShapeEncoderConfig, header["shape_config"])
        vocab = header["vocab"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise EncoderError(f"malformed checkpoint metadata: {exc!r}") from None
    _check_vocab(vocab, text_config.vocab_size)

    digest = hashlib.sha256(line)
    loaded = []
    for owner, config in (("text", text_config), ("shape", shape_config)):
        flat = np.empty(_size(config), dtype="<f4")
        got = stream.readinto(flat)
        if got < flat.nbytes:
            raise EncoderError(f"checkpoint blob truncated in the {owner} buffer: "
                               f"{got} of its {flat.nbytes} bytes")
        digest.update(flat)
        loaded.append(Params(config, flat.astype(np.float32, copy=False)))
    extra = len(stream.read())
    if extra:
        raise EncoderError(f"checkpoint has {extra} bytes after its last parameter")
    return Checkpoint(*loaded, vocab, header.get("meta", {}), digest.hexdigest())


def _check_vocab(vocab, vocab_size):
    """A checkpoint's vocabulary maps words to the ids 2 .. vocab_size - 1,
    each once, as `Vocabulary` numbers them after the reserved PAD and UNK."""
    if (not isinstance(vocab, dict)
            or not all(type(i) is int for i in vocab.values())
            or sorted(vocab.values()) != list(range(2, vocab_size))):
        raise EncoderError("checkpoint vocab must map words to the ids 2 .. "
                           f"{vocab_size - 1} of text_config.vocab_size "
                           f"{vocab_size}, each once")
