"""Span recording around rodfind's public functions, from outside the package.

A `Tracer` keeps spans in memory (name, start, end, parent) and writes them
out once, when the run ends. `instrument` swaps module attributes for
recording wrappers and puts the originals back on exit. Several names are
bound with `from ... import` in the module that calls them, so the wrapper
is installed in every namespace listed for a layer; a name patched in one
module only would let the calls from the other modules go uncounted.

A keyed `Tracer` also gives each span a key, the span's name and the
`signature` of its arguments, so that `best_of_repeats` can tell which
pieces of a run repeated the same work.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span log for one phase of a run, plus named counters.
    With `keyed`, `keys[i]` is the key of `spans[i]`."""

    def __init__(self, keyed=False):
        self.spans = []  # [name, start, end, parent index or -1]
        self.keys = [] if keyed else None
        self.counts = defaultdict(float)
        self._stack = []

    def open(self, name, key=None):
        parent = self._stack[-1] if self._stack else -1
        if self.keys is not None:
            self.keys.append(key)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def write(self, stream, phase):
        for name, start, end, parent in self.spans:
            stream.write(json.dumps({"phase": phase, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Per-name sums of self time: each span's duration minus the part of it
    that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered(children[index], start, end)
    return out


def signature(value, depth=0):
    """What decides the cost of a call, as far as its arguments show it:
    array shapes and dtypes (and the largest entry of a 1-D integer array,
    such as the sequence lengths a GRU runs to), integers, the length of a
    list, one level into tuples (the layer caches); the type of anything
    else."""
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind in "iu" and value.size:
            return (value.shape, value.dtype.str, int(value.max()))
        return (value.shape, value.dtype.str)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, tuple) and depth == 0:
        return tuple(signature(v, 1) for v in value)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, len(value))
    return type(value).__name__


def best_of_repeats(spans, keys):
    """Seconds the recorded spans would take with every piece of work at the
    fastest of its repeats.

    A span's self time is cut at its children into pieces; a piece's key is
    the span's key with those of the children on either side ("start" and
    "end" at the edges), so the glue between the same two calls of the same
    caller shares a key. Pieces that share a key count as repeats of one
    piece of work. The result is the sum, over keys, of the number of
    pieces times the shortest one. The pieces of a span and its children
    add up to the span, so with every repeat equally fast this is the sum
    of the root spans.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    count, best = Counter(), {}
    for index, (_, start, end, _) in enumerate(spans):
        at, before = start, "start"
        for child in children[index] + [None]:
            until, after = (end, "end") if child is None else (spans[child][1], keys[child])
            piece = (keys[index], before, after)
            count[piece] += 1
            best[piece] = min(best.get(piece, until - at), until - at)
            if child is not None:
                at, before = spans[child][2], keys[child]
    return sum(count[piece] * best[piece] for piece in count)


def optimizer_time(spans):
    """`fit` minus the `loss_and_gradients` and `evaluate_recall` calls it
    makes: Adam, batching, shuffling and data preparation."""
    total = 0.0
    for name, start, end, parent in spans:
        if name == "training.fit":
            total += end - start
        elif (name in ("training.loss_and_gradients", "training.evaluate_recall")
              and parent >= 0 and spans[parent][0] == "training.fit"):
            total -= end - start
    return total


# ---------------------------------------------------------------------------
# wrappers

def _cols_bytes(x, stride, pad):
    """Size of the im2col tensor a conv3d call builds, from its input shape."""
    out = (x.shape[1] + 2 * pad - 3) // stride + 1
    return x.shape[0] * out ** 3 * 27 * x.shape[4] * x.itemsize


def _conv3d_forward_name(args, kwargs):
    return "nn.conv3d_front_fwd" if args[3] == 1 else "nn.conv3d_back_fwd"


def _conv3d_backward_name(args, kwargs):
    return "nn.conv3d_front_bwd" if args[0][4] == 1 else "nn.conv3d_back_bwd"


def _count_conv3d_forward(tracer, args, result):
    x, _, _, stride, pad = args
    tracer.count("nn.conv3d_cols_bytes", _cols_bytes(x, stride, pad))


def _count_conv3d_backward(tracer, args, result):
    """The backward builds a column gradient the size of the cached columns."""
    cols = args[0][0]
    tracer.count("nn.conv3d_cols_bytes", cols.nbytes)


def _count_triplets(tracer, args, result):
    for trip in result:
        tracer.count(f"training.triplets_{trip.kind}")
        tracer.count("training.anchors")
        # the hardest-negative fallback fires exactly when no semi-hard
        # negative exists, i.e. when the mined triplet is not semi-hard
        tracer.count("training.fallbacks", trip.kind != "semi_hard")


def _count_combos(tracer, args, result):
    slots, combos = result
    tracer.count("dataset.combos_enumerated", 3 ** len(slots))
    tracer.count("dataset.combos_kept", len(combos))


def _count_schema(tracer, args, result):
    tracer.count("taxonomy.default_schema_calls")


def wrap(tracer, fn, name, after=None):
    """`fn` inside a span named `name` (a string, or a function of the call's
    arguments); `after(tracer, args, result)` records counts."""
    name_of = name if callable(name) else (lambda args, kwargs: name)

    def wrapper(*args, **kwargs):
        span_name = name_of(args, kwargs)
        key = None
        if tracer.keys is not None:
            key = (span_name, tuple(signature(a) for a in args),
                   tuple((k, signature(v)) for k, v in sorted(kwargs.items())))
        index = tracer.open(span_name, key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def layer_table(rodfind):
    """(namespaces, attribute, span name, counter) for every traced call.

    `doe` and `cli` are left out on purpose: `doe`'s own work takes
    microseconds and tuning time is training time, and `cli` is argument
    plumbing over the functions below.
    """
    nn, enc, tr, ds, rt, tx = (rodfind.nn, rodfind.encoders, rodfind.training,
                               rodfind.dataset, rodfind.retrieval, rodfind.taxonomy)
    geo, vox, stl, build = (rodfind.geometry, rodfind.geometry.voxelize,
                            rodfind.geometry.stl, rodfind.geometry.build)
    return [
        ((nn,), "conv3d_forward", _conv3d_forward_name, _count_conv3d_forward),
        ((nn,), "conv3d_backward", _conv3d_backward_name, _count_conv3d_backward),
        ((nn,), "conv1d_forward", "nn.conv1d_fwd", None),
        ((nn,), "conv1d_backward", "nn.conv1d_bwd", None),
        ((nn,), "gru_forward", "nn.gru_fwd", None),
        ((nn,), "gru_backward", "nn.gru_bwd", None),
        ((nn,), "maxpool3d_forward", "nn.maxpool3d_fwd", None),
        ((nn,), "maxpool3d_backward", "nn.maxpool3d_bwd", None),
        ((enc,), "text_apply", "encoders.text_apply", None),
        ((enc,), "text_backward", "encoders.text_backward", None),
        ((enc,), "shape_apply", "encoders.shape_apply", None),
        ((enc,), "shape_backward", "encoders.shape_backward", None),
        ((enc,), "save_checkpoint", "encoders.checkpoint_io", None),
        ((enc,), "load_checkpoint", "encoders.checkpoint_io", None),
        ((enc,), "checkpoint_bytes", "encoders.checkpoint_io", None),
        ((enc,), "parse_checkpoint", "encoders.checkpoint_io", None),
        ((tr,), "fit", "training.fit", None),
        ((tr,), "loss_and_gradients", "training.loss_and_gradients", None),
        ((tr,), "mine_semihard", "training.mine_semihard", _count_triplets),
        ((tr,), "evaluate_recall", "training.evaluate_recall", None),
        ((tr,), "recall_from_embeddings", "training.recall_from_embeddings", None),
        ((ds,), "enumerate_size_combos", "dataset.enumerate_size_combos", _count_combos),
        ((ds,), "write_nrrd", "dataset.nrrd_io", None),
        ((ds,), "read_nrrd", "dataset.nrrd_io", None),
        ((ds,), "write_manifest", "dataset.manifest_io", None),
        ((ds,), "read_manifest", "dataset.manifest_io", None),
        ((ds, tr, rt), "tokenize", "dataset.tokenize", None),
        ((geo, vox, ds), "voxelize_solid", "geometry.voxelize_solid", None),
        ((geo, vox), "voxelize_mesh", "geometry.voxelize_mesh", None),
        ((geo, stl), "parse_stl", "geometry.parse_stl", None),
        ((rt,), "query", "retrieval.query", None),
        ((rt,), "pairwise_distances", "retrieval.pairwise_distances", None),
        ((rt,), "save_index", "retrieval.index_io", None),
        ((rt,), "load_index", "retrieval.index_io", None),
        ((tx, rt), "parse_text", "taxonomy.parse_text", None),
        ((tx, rt, ds), "render_text", "taxonomy.render_text", None),
        ((tx, rt, ds, build), "default_schema", "taxonomy.default_schema", _count_schema),
    ]


@contextlib.contextmanager
def instrument(rodfind, tracer):
    """Record spans into `tracer` for the duration of the block."""
    saved = []
    try:
        for namespaces, attr, name, after in layer_table(rodfind):
            for module in namespaces:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(tracer, original, name, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric name -> the span names whose self times it sums
SELF_TIME_METRICS = {
    "nn.conv3d_front_fwd_s": ("nn.conv3d_front_fwd",),
    "nn.conv3d_front_bwd_s": ("nn.conv3d_front_bwd",),
    "nn.conv3d_back_fwd_s": ("nn.conv3d_back_fwd",),
    "nn.conv3d_back_bwd_s": ("nn.conv3d_back_bwd",),
    "nn.gru_fwd_s": ("nn.gru_fwd",),
    "nn.gru_bwd_s": ("nn.gru_bwd",),
    "nn.conv1d_fwd_s": ("nn.conv1d_fwd",),
    "nn.conv1d_bwd_s": ("nn.conv1d_bwd",),
    "nn.maxpool3d_fwd_s": ("nn.maxpool3d_fwd",),
    "nn.maxpool3d_bwd_s": ("nn.maxpool3d_bwd",),
    "encoders.text_apply_s": ("encoders.text_apply",),
    "encoders.text_backward_s": ("encoders.text_backward",),
    "encoders.shape_apply_s": ("encoders.shape_apply",),
    "encoders.shape_backward_s": ("encoders.shape_backward",),
    "encoders.checkpoint_io_s": ("encoders.checkpoint_io",),
    "training.loss_and_gradients_self_s": ("training.loss_and_gradients",),
    "training.mine_semihard_s": ("training.mine_semihard",),
    "training.recall_from_embeddings_s": ("training.recall_from_embeddings",),
    "dataset.enumerate_size_combos_s": ("dataset.enumerate_size_combos",),
    "dataset.nrrd_io_s": ("dataset.nrrd_io",),
    "dataset.manifest_io_s": ("dataset.manifest_io",),
    "dataset.tokenize_s": ("dataset.tokenize",),
    "geometry.voxelize_solid_s": ("geometry.voxelize_solid",),
    "geometry.voxelize_mesh_s": ("geometry.voxelize_mesh",),
    "geometry.parse_stl_s": ("geometry.parse_stl",),
    "retrieval.query_self_s": ("retrieval.query", "retrieval.pairwise_distances"),
    "retrieval.pairwise_distances_s": ("retrieval.pairwise_distances",),
    "retrieval.index_io_s": ("retrieval.index_io",),
    "taxonomy.parse_text_s": ("taxonomy.parse_text",),
    "taxonomy.render_text_s": ("taxonomy.render_text",),
    "taxonomy.default_schema_s": ("taxonomy.default_schema",),
}

# layers that do real work in some workload's set-up; their set-up self time
# is reported apart, as "setup.<metric>"
SETUP_METRICS = ("dataset.enumerate_size_combos_s", "geometry.voxelize_solid_s",
                 "encoders.checkpoint_io_s", "retrieval.index_io_s")

PER_LAYER_UNITS = {name: "s" for name in SELF_TIME_METRICS}
PER_LAYER_UNITS.update({f"setup.{name}": "s" for name in SETUP_METRICS})
PER_LAYER_UNITS.update({
    "training.optimizer_s": "s",
    "nn.conv3d_cols_bytes": "bytes_computed",
    "training.triplets_easy": "count",
    "training.triplets_semi_hard": "count",
    "training.triplets_hard": "count",
    "training.fallback_ratio": "ratio",
    "dataset.combos_kept_ratio": "ratio",
    "taxonomy.default_schema_calls": "count",
    "trace.spans_per_op": "count",
    "trace.overhead_ratio": "ratio",
})


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(setup, measure, ops):
    """Per-layer figures of a traced run.

    Times and counts are per workload operation of the measured phase
    (`measure` tracer, `ops` traced operations); the `setup.` times are the
    self seconds of one traced set-up. Ratios pool the whole run.
    """
    setup_self, measure_self = self_times(setup.spans), self_times(measure.spans)
    out = {metric: sum(measure_self[n] for n in names) / ops
           for metric, names in SELF_TIME_METRICS.items()}
    for metric in SETUP_METRICS:
        out[f"setup.{metric}"] = sum(setup_self[n] for n in SELF_TIME_METRICS[metric])
    out["training.optimizer_s"] = optimizer_time(measure.spans) / ops
    counts = measure.counts
    for metric in ("nn.conv3d_cols_bytes", "training.triplets_easy",
                   "training.triplets_semi_hard", "training.triplets_hard",
                   "taxonomy.default_schema_calls"):
        out[metric] = counts[metric] / ops
    out["training.fallback_ratio"] = _ratio(counts["training.fallbacks"],
                                            counts["training.anchors"])
    out["dataset.combos_kept_ratio"] = _ratio(
        setup.counts["dataset.combos_kept"] + counts["dataset.combos_kept"],
        setup.counts["dataset.combos_enumerated"] + counts["dataset.combos_enumerated"])
    out["trace.spans_per_op"] = len(measure.spans) / ops
    return out
