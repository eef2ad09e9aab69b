"""The two encoders of the joint embedding space.

Text: token embedding -> three width-3 convolutions at the embedding width
-> a fourth expanding to twice the width -> masked GRU (mean over valid
states) -> two dense layers -> L2 normalization. A token batch is (B, L)
with B >= 1 and one length per row, 0 <= length <= L; anything else raises
EncoderError.

Shape: seven 3-d convolutions (four shape-preserving at 4 channels, then a
stride-3 stack at 64/128/256 channels), max pool, dense layer, L2
normalization. The stride-3 paddings (1, 1, 2) land the 16^3 input on 2^3
at every depth, so the pool is the max over the eight positions of that
final 2^3 map. The last convolution's input is already 2^3: padded by 2,
each of its stride-3 windows holds one input voxel, at the same position
as the window's output, seen through one tap (tap 2 - 2i on an axis where
the position is i). Its other 19 taps only ever multiply padding, so the
layer stores just the live ones, as eight per-position Cin -> Cout maps
(`live_taps`). The initializer still draws that layer's full 3x3x3 kernel
and keeps the live taps, so every weight starts where it did when all 27
were stored and the random stream of the layers after it is unchanged.

Both forwards have exact reverse-mode counterparts used by the trainer.

Parameters: each encoder keeps all of its parameters in one contiguous
buffer (`Params.flat`) with named views into it (`Params.arrays`). The
config's `layout()` fixes the views' names, shapes and order; that order is
also the order of the checkpoint entries and of the initializer's random
draws, and a backward returns its gradient in a buffer with the same layout.
Updates write into the buffer in place and never rebind it, so the views
stay valid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .errors import EncoderError
from .geometry import VoxelGrid


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


@dataclass(frozen=True)
class ShapeEncoderConfig:
    resolution: int = 16
    num_conv_layers: int = 7
    front_channels: int = 4
    back_channels: tuple[int, int, int] = (64, 128, 256)
    out_dim: int = 128

    _BACK_PADS = (1, 1, 2)

    def __post_init__(self):
        if not 3 <= self.num_conv_layers <= 7:
            raise EncoderError("num_conv_layers must be between 3 and 7")
        if self.resolution != 16:
            raise EncoderError("the shape encoder is laid out for 16^3 grids")
        if len(self.back_channels) != 3:
            raise EncoderError("the stride-3 stack has exactly three layers")

    def layer_plan(self):
        """(in_channels, out_channels, stride, pad) per convolution layer."""
        plan = []
        channels = 1
        for _ in range(self.num_conv_layers - 3):
            plan.append((channels, self.front_channels, 1, 1))
            channels = self.front_channels
        for out_channels, pad in zip(self.back_channels, self._BACK_PADS):
            plan.append((channels, out_channels, 3, pad))
            channels = out_channels
        return plan

    def spatial_trace(self):
        """Cube edge length after each convolution, then after the pool."""
        size = self.resolution
        sizes = []
        for _, _, stride, pad in self.layer_plan():
            size = (size + 2 * pad - 3) // stride + 1
            sizes.append(size)
        return sizes, sizes[-1] - 1

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


def text_apply(params: Params, tokens, lengths, with_cache=False):
    ids, lengths = _token_matrix(tokens, lengths, params.config)
    a = params.arrays
    caches = []
    x, c = nn.embedding_forward(ids, lengths, a["embed"])
    caches.append(("embed", c))
    for i in range(len(params.config.conv_channels)):
        x, c = nn.conv1d_forward(x, a[f"conv{i + 1}_w"], a[f"conv{i + 1}_b"])
        caches.append((f"conv{i}", c))
        x, c = nn.relu_forward(x)
        caches.append((f"relu{i}", c))
    h, c = nn.gru_forward(x, lengths, a["gru_w_ih"], a["gru_w_hh"],
                          a["gru_b_ih"], a["gru_b_hh"], want_trace=with_cache)
    caches.append(("gru", c))
    y, c = nn.linear_forward(h, a["fc1_w"], a["fc1_b"])
    caches.append(("fc1", c))
    y, c = nn.relu_forward(y)
    caches.append(("fc1_relu", c))
    y, c = nn.linear_forward(y, a["fc2_w"], a["fc2_b"])
    caches.append(("fc2", c))
    y, c = nn.l2_normalize_forward(y)
    caches.append(("norm", c))
    if not np.isfinite(y).all():
        raise EncoderError("text encoder produced a non-finite embedding")
    return (y, caches) if with_cache else (y, None)


def text_forward(params: Params, tokens, lengths) -> np.ndarray:
    """Embed a token batch; rows are unit norm."""
    return text_apply(params, tokens, lengths)[0]


def text_backward(params: Params, caches, d_emb) -> np.ndarray:
    """Gradient of every parameter, in a buffer laid out like `params.flat`."""
    grad = np.empty_like(params.flat)
    g = params.views(grad)
    stack = list(caches)
    dy = nn.l2_normalize_backward(stack.pop()[1], d_emb)
    dy, g["fc2_w"][...], g["fc2_b"][...] = nn.linear_backward(stack.pop()[1], dy)
    dy = nn.relu_backward(stack.pop()[1], dy)
    dy, g["fc1_w"][...], g["fc1_b"][...] = nn.linear_backward(stack.pop()[1], dy)
    (dy, g["gru_w_ih"][...], g["gru_w_hh"][...],
     g["gru_b_ih"][...], g["gru_b_hh"][...]) = nn.gru_backward(stack.pop()[1], dy)
    for i in range(len(params.config.conv_channels), 0, -1):
        dy = nn.relu_backward(stack.pop()[1], dy)
        dy, g[f"conv{i}_w"][...], g[f"conv{i}_b"][...] = nn.conv1d_backward(
            stack.pop()[1], dy)
    g["embed"][...] = nn.embedding_backward(stack.pop()[1], dy)
    return grad


# ---------------------------------------------------------------------------
# shape pipeline

def _grid_batch(grids, config, dtype):
    if isinstance(grids, np.ndarray):
        batch = grids
    else:
        arrays = []
        for g in grids:
            arrays.append(g.occupancy if isinstance(g, VoxelGrid) else np.asarray(g))
        if not arrays:
            raise EncoderError("shape batch is empty")
        batch = np.stack(arrays)
    n = config.resolution
    if batch.ndim != 4 or batch.shape[1:] != (n, n, n):
        raise EncoderError(f"shape batch must be (batch, {n}, {n}, {n}), "
                           f"got {batch.shape}")
    if len(batch) == 0:
        raise EncoderError("shape batch is empty")
    return batch.astype(dtype)[..., None]


def shape_apply(params: Params, grids, with_cache=False):
    x = _grid_batch(grids, params.config, params.flat.dtype)
    a = params.arrays
    caches = []
    plan = params.config.layer_plan()
    for i, (_, _, stride, pad) in enumerate(plan):
        w, b = a[f"conv{i + 1}_w"], a[f"conv{i + 1}_b"]
        if i + 1 < len(plan):
            x, c = nn.conv3d_forward(x, w, b, stride, pad)
        else:
            x, c = nn.position_linear_forward(x, w, b)
        caches.append((f"conv{i}", c))
        x, c = nn.relu_forward(x)
        caches.append((f"relu{i}", c))
    x, c = nn.maxpool3d_forward(x)
    caches.append(("pool", c))
    flat = x.reshape(x.shape[0], -1)
    caches.append(("flatten", x.shape))
    y, c = nn.linear_forward(flat, a["fc_w"], a["fc_b"])
    caches.append(("fc", c))
    y, c = nn.l2_normalize_forward(y)
    caches.append(("norm", c))
    if not np.isfinite(y).all():
        raise EncoderError("shape encoder produced a non-finite embedding")
    return (y, caches) if with_cache else (y, None)


def shape_forward(params: Params, grids) -> np.ndarray:
    """Embed a batch of 16^3 grids; rows are unit norm."""
    return shape_apply(params, grids)[0]


def shape_backward(params: Params, caches, d_emb) -> np.ndarray:
    """Gradient of every parameter, in a buffer laid out like `params.flat`."""
    grad = np.empty_like(params.flat)
    g = params.views(grad)
    stack = list(caches)
    dy = nn.l2_normalize_backward(stack.pop()[1], d_emb)
    dy, g["fc_w"][...], g["fc_b"][...] = nn.linear_backward(stack.pop()[1], dy)
    dy = dy.reshape(stack.pop()[1])
    dy = nn.maxpool3d_backward(stack.pop()[1], dy)
    last = params.config.num_conv_layers
    for i in range(last, 0, -1):
        dy = nn.relu_backward(stack.pop()[1], dy)
        cache = stack.pop()[1]
        if i == last:
            grads = nn.position_linear_backward(cache, dy)
        else:
            # the first layer's input is the grid: no gradient to pass on
            grads = nn.conv3d_backward(cache, dy, input_grad=i > 1)
        dy, g[f"conv{i}_w"][...], g[f"conv{i}_b"][...] = grads
    return grad


# ---------------------------------------------------------------------------
# checkpoints: one JSON metadata line, then each encoder's buffer (text,
# shape) as little-endian float32 bytes; the header lists every parameter's
# name, shape, byte offset and size, as the layout gives them

# version 2 stores the last shape convolution as its live taps; the
# 27-tap files of version 1 are refused
CHECKPOINT_VERSION = 2


@dataclass
class Checkpoint:
    text: Params
    shape: Params
    vocab_words: dict[str, int]
    meta: dict = field(default_factory=dict)
    fingerprint: str = ""


def _config_json(config):
    data = {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in config.__dict__.items()}
    return data


def _config_from_json(cls, data):
    return cls(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in data.items()})


def _entries(text_config, shape_config):
    """Header entries of both buffers, the shape buffer's bytes following
    the text buffer's."""
    entries, offset = [], 0
    for owner, config in (("text", text_config), ("shape", shape_config)):
        for name, shape, _ in config.layout():
            nbytes = 4 * math.prod(shape)
            entries.append({"name": f"{owner}.{name}", "shape": list(shape),
                            "offset": offset, "nbytes": nbytes})
            offset += nbytes
    return entries


def checkpoint_bytes(text: Params, shape: Params,
                     vocab_words: dict[str, int], meta: dict | None = None) -> bytes:
    header = {
        "format": "rodfind-checkpoint",
        "version": CHECKPOINT_VERSION,
        "text_config": _config_json(text.config),
        "shape_config": _config_json(shape.config),
        "vocab": vocab_words,
        "meta": meta or {},
        "params": _entries(text.config, shape.config),
    }
    return b"".join([json.dumps(header, sort_keys=True).encode("utf-8"), b"\n",
                     text.flat.astype("<f4", copy=False),
                     shape.flat.astype("<f4", copy=False)])


def save_checkpoint(path, text, shape, vocab_words, meta=None) -> str:
    data = checkpoint_bytes(text, shape, vocab_words, meta)
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    return parse_checkpoint(data)


def parse_checkpoint(data: bytes) -> Checkpoint:
    """Read `checkpoint_bytes` output; malformed input raises EncoderError."""
    newline = data.find(b"\n")
    if newline < 0:
        raise EncoderError("checkpoint is missing its metadata line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
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
        expected = _entries(text_config, shape_config)
        vocab, table = header["vocab"], header["params"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise EncoderError(f"malformed checkpoint metadata: {exc!r}") from None

    # the entries must be exactly the layout's: then none is missing,
    # repeated, mis-sized or aliases another, and each buffer is one run
    if not isinstance(table, list):
        raise EncoderError("checkpoint parameter table is not a list")
    for want, got in itertools.zip_longest(expected, table):
        if got != want:
            raise EncoderError(f"checkpoint entry {got} does not match the "
                               f"layout's {want}")
    blob_size = len(data) - newline - 1
    for entry in expected:
        if entry["offset"] + entry["nbytes"] > blob_size:
            raise EncoderError(f"checkpoint blob truncated at {entry['name']}")

    loaded, start = [], newline + 1
    for config in (text_config, shape_config):
        count = _size(config)
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        loaded.append(Params(config, flat.astype(np.float32)))
        start += 4 * count
    return Checkpoint(*loaded, vocab, header.get("meta", {}),
                      hashlib.sha256(data).hexdigest())
