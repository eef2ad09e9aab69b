import hashlib
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gradcheck as gc
from rodfind import encoders as enc
from rodfind.errors import EncoderError

TINY_TEXT = dict(embed_dim=6, conv_channels=(5, 5, 5, 7), gru_hidden=6,
                 fc_hidden=6, out_dim=4, max_len=8)
TINY_SHAPE = dict(num_conv_layers=5, front_channels=2, back_channels=(3, 4, 5),
                  out_dim=4)


def tiny_params(seed=11, dtype=np.float64, jitter=None):
    tcfg = enc.TextEncoderConfig(vocab_size=8, **TINY_TEXT)
    scfg = enc.ShapeEncoderConfig(**TINY_SHAPE)
    tp, sp = enc.init_params(8, seed, tcfg, scfg, dtype=dtype)
    if jitter is not None:
        rng = np.random.default_rng(jitter)
        for a in arrays(tp, sp):
            a += rng.uniform(-0.05, 0.05, size=a.shape)
    return tp, sp


def perturbed_params(seed):
    """tiny_params() under a strong U(-0.8, 0.8) perturbation: the small init
    maps a batch's inputs to nearly the same embedding (~0.01 apart), and
    this spreads them."""
    tp, sp = tiny_params()
    rng = np.random.default_rng(seed)
    for a in arrays(tp, sp):
        a += rng.uniform(-0.8, 0.8, size=a.shape)
    return tp, sp


def arrays(*params):
    """Every named view of the given encoders' parameters, in layout order."""
    return [a for p in params for a in p.arrays.values()]


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a_t, a_s = enc.init_params(50, seed=42)
        b_t, b_s = enc.init_params(50, seed=42)
        for a, b in ((a_t, b_t), (a_s, b_s)):
            assert list(a.arrays) == list(b.arrays)
            assert np.array_equal(a.flat, b.flat)

    def test_different_seed_differs(self):
        a_t, _ = enc.init_params(50, seed=1)
        b_t, _ = enc.init_params(50, seed=2)
        assert not np.array_equal(a_t.arrays["embed"], b_t.arrays["embed"])

    def test_biases_exactly_zero(self):
        tp, sp = enc.init_params(50, seed=0)
        for name, array in list(tp.arrays.items()) + list(sp.arrays.items()):
            if name.endswith("_b") or name.startswith("gru_b"):
                assert (array == 0).all(), name

    def test_text_parameter_count_closed_form(self):
        tp, _ = enc.init_params(100, seed=0)
        v, e, h = 100, 128, 256
        expected = v * e                                   # embedding table
        expected += 3 * (128 * 128 * 3 + 128)              # conv 1-3
        expected += 256 * 128 * 3 + 256                    # conv 4
        expected += 3 * h * 256 + 3 * h * h + 6 * h        # GRU weights + biases
        expected += 256 * 256 + 256                        # fc1
        expected += 128 * 256 + 128                        # fc2
        assert tp.flat.size == expected

    def test_shape_parameter_count_closed_form(self):
        _, sp = enc.init_params(100, seed=0)
        expected = 0
        for cin, cout in [(1, 4), (4, 4), (4, 4), (4, 4), (4, 64), (64, 128)]:
            expected += cout * cin * 27 + cout
        expected += 8 * 128 * 256 + 256                    # conv 7: its 8 live taps
        expected += 128 * 256 + 128                        # final dense
        assert sp.flat.size == expected == 525_004

    @pytest.mark.parametrize("layers", [3, 5, 7])
    def test_last_layer_starts_at_the_live_taps_of_the_full_kernel_draw(self, layers):
        # the full 3x3x3 kernel is drawn in layout order, so every weight
        # (and the dense layer drawn after it) starts where it would if all
        # 27 taps were stored
        cfg = enc.ShapeEncoderConfig(num_conv_layers=layers)
        tcfg = enc.TextEncoderConfig(50)
        _, sp = enc.init_params(50, 4, tcfg, cfg)
        rng = np.random.default_rng(4)
        for _, shape, fan_in in tcfg.layout():
            if fan_in is not None:
                rng.uniform(-1, 1, size=shape)
        for (name, shape, fan_in), (cin, cout, _, _) in zip(cfg.layout()[::2],
                                                          cfg.layer_plan()):
            bound = np.sqrt(1.0 / fan_in)
            full = rng.uniform(-bound, bound, size=(cout, cin, 3, 3, 3)).astype(np.float32)
            want = full if len(shape) == 5 else np.stack(
                [full[:, :, 2 - 2 * i, 2 - 2 * j, 2 - 2 * k].T
                 for i in range(2) for j in range(2) for k in range(2)])
            assert np.array_equal(sp.arrays[name], want), name
        bound = np.sqrt(1.0 / 256)
        fc = rng.uniform(-bound, bound, size=(128, 256)).astype(np.float32)
        assert np.array_equal(sp.arrays["fc_w"], fc)

    def test_weight_bounds_follow_fan_in(self):
        tp, _ = enc.init_params(100, seed=3)
        bound = np.sqrt(1.0 / (128 * 3))
        assert np.abs(tp.arrays["conv1_w"]).max() <= bound
        assert np.abs(tp.arrays["conv1_w"]).max() > 0.9 * bound  # actually fills the range


def test_readme_states_the_checkpoint_version_and_shape_parameter_count():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").split())
    assert re.findall(r"format version (\d+)", readme) == [str(enc.CHECKPOINT_VERSION)]
    size = sum(math.prod(shape) for _, shape, _ in enc.ShapeEncoderConfig().layout())
    assert re.findall(r"([\d,]+) shape parameters", readme) == [f"{size:,}"]


def tape_edges(layers):
    """(config, input edges): the edge of each convolution's input and then
    of the pool's, read from the x.shape that a real shape_apply tape caches
    for each (a convolution's third cache item, the pool's second)."""
    config = enc.ShapeEncoderConfig(**{**TINY_SHAPE, "num_conv_layers": layers})
    _, sp = enc.init_params(8, 0, enc.TextEncoderConfig(vocab_size=8, **TINY_TEXT),
                            config)
    _, tape = enc.shape_apply(sp, np.ones((1, 16, 16, 16)))
    edges = [cache[2][1] for name, _, cache, _ in tape if name.startswith("conv")]
    edges += [cache[1][1] for name, _, cache, _ in tape if name == "pool"]
    return config, edges


class TestShapeConfig:
    def test_tape_edges_match_conv_arithmetic(self):
        config, edges = tape_edges(7)
        assert edges == [16, 16, 16, 16, 16, 6, 2, 2]
        for edge, after, (_, _, stride, pad) in zip(edges, edges[1:],
                                                    config.layer_plan()):
            assert after == (edge + 2 * pad - 3) // stride + 1

    @pytest.mark.parametrize("layers", [3, 4, 5, 6, 7])
    def test_variable_depth_always_lands_on_the_pool(self, layers):
        config, edges = tape_edges(layers)
        # the pool reads a 2^3 map; the last layer's input is 2^3 at stride
        # 3, pad 2: one live tap per window, which is what lets it store
        # only those taps
        assert edges[-1] == 2
        assert edges[-2] == 2 and config.layer_plan()[-1][2:] == (3, 2)
        assert len(config.layer_plan()) == layers == len(edges) - 1

    @pytest.mark.parametrize("layers", [3, 4, 5, 6, 7])
    def test_every_stride_3_layer_pads_its_edge_to_a_multiple_of_3(self, layers):
        # then its windows tile the padded grid and read every input voxel
        config, edges = tape_edges(layers)
        pads = []
        for edge, (_, _, stride, pad) in zip(edges, config.layer_plan()):
            if stride == 3:
                assert (edge + 2 * pad) % 3 == 0, (edge, pad)
                pads.append(pad)
        assert pads == [1, 0, 2]

    def test_depth_out_of_range(self):
        with pytest.raises(EncoderError):
            enc.ShapeEncoderConfig(num_conv_layers=2)
        with pytest.raises(EncoderError):
            enc.ShapeEncoderConfig(num_conv_layers=8)


class TestForward:
    def test_text_shapes_norms_and_determinism(self):
        tp, _ = enc.init_params(30, seed=5)
        rng = np.random.default_rng(0)
        tokens = rng.integers(2, 30, size=(4, 256))
        lengths = np.array([10, 50, 128, 256])
        for b in range(4):
            tokens[b, lengths[b]:] = 0
        a = enc.text_forward(tp, tokens, lengths)
        b = enc.text_forward(tp, tokens, lengths)
        assert a.shape == (4, 128)
        assert np.abs(np.linalg.norm(a, axis=1) - 1).max() < 1e-6
        assert np.array_equal(a, b)

    def test_shape_shapes_norms_and_determinism(self):
        _, sp = enc.init_params(30, seed=5)
        rng = np.random.default_rng(1)
        grids = (rng.random((3, 16, 16, 16)) < 0.4).astype(np.uint8)
        a = enc.shape_forward(sp, grids)
        assert a.shape == (3, 128)
        assert np.abs(np.linalg.norm(a, axis=1) - 1).max() < 1e-6
        assert np.array_equal(a, enc.shape_forward(sp, grids))

    def test_pad_tail_never_matters(self):
        tp, _ = enc.init_params(30, seed=6)
        rng = np.random.default_rng(2)
        tokens = rng.integers(2, 30, size=(2, 256))
        lengths = np.array([37, 101])
        reference = enc.text_forward(tp, tokens, lengths)
        # same prefixes, arbitrary garbage tails
        garbled = tokens.copy()
        for b, n in enumerate(lengths):
            garbled[b, n:] = rng.integers(0, 30, size=256 - n)
        assert np.array_equal(enc.text_forward(tp, garbled, lengths), reference)

    def test_token_id_out_of_range(self):
        tp, _ = enc.init_params(10, seed=0)
        tokens = np.full((1, 16), 11)
        with pytest.raises(EncoderError, match="out of range"):
            enc.text_forward(tp, tokens, np.array([16]))

    @pytest.mark.parametrize("lengths, token, message", [
        ([4], 2, "one length per row: 3 rows"),
        ([4, 4], 2, "one length per row: 3 rows"),
        ([4, -1, 4], 2, "length -1 out of range"),
        ([4, 9, 4], 2, "length 9 out of range"),
        ([4, 4, 4], -1, "token id -1 out of range"),
    ], ids=["one-for-all", "count", "negative", "past-L", "negative-id"])
    def test_malformed_token_batch_rejected(self, lengths, token, message):
        tp, _ = tiny_params()
        tokens = np.full((3, 8), 2)
        tokens[1, 0] = token
        with pytest.raises(EncoderError, match=message):
            enc.text_forward(tp, tokens, np.array(lengths))

    def test_empty_batches_rejected(self):
        tp, sp = tiny_params()
        with pytest.raises(EncoderError, match="token batch is empty"):
            enc.text_forward(tp, np.zeros((0, 8), dtype=np.int64), np.zeros(0, dtype=np.int64))
        for grids in (np.zeros((0, 16, 16, 16)), []):
            with pytest.raises(EncoderError, match="shape batch is empty"):
                enc.shape_forward(sp, grids)

    @pytest.mark.parametrize("layers", [3, 4])
    def test_every_voxel_near_the_far_faces_moves_the_embedding(self, layers):
        # the voxels with a coordinate >= 14 are the ones a stride-3 window
        # could miss. Each flip is one row of a float32 batch whose row 0 is
        # the unflipped grid; rows are compared only within a batch, since a
        # forward's last bits depend on the batch size.
        _, sp = enc.init_params(10, 0, shape_config=enc.ShapeEncoderConfig(
            num_conv_layers=layers))
        grid = (np.random.default_rng(3).random((16, 16, 16)) < 0.4).astype(np.float32)
        coords = np.argwhere(np.indices(grid.shape).max(axis=0) >= 14)
        unchanged = []
        for start in range(0, len(coords), 127):
            chunk = coords[start:start + 127]
            batch = np.repeat(grid[None], len(chunk) + 1, axis=0)
            rows = np.arange(1, len(chunk) + 1)
            batch[(rows, *chunk.T)] = 1 - batch[(rows, *chunk.T)]
            y = enc.shape_forward(sp, batch)
            unchanged += chunk[(y[1:] == y[0]).all(axis=1)].tolist()
        assert len(coords) == 16 ** 3 - 14 ** 3
        assert unchanged == [], f"{len(unchanged)} voxels never reach the embedding"

    def test_wrong_resolution_rejected(self):
        _, sp = enc.init_params(10, seed=0)
        with pytest.raises(EncoderError, match="shape batch"):
            enc.shape_forward(sp, np.zeros((1, 8, 8, 8)))

    def test_all_zero_grid_is_finite(self):
        _, sp = enc.init_params(10, seed=0)
        out = enc.shape_forward(sp, np.zeros((1, 16, 16, 16)))
        assert np.isfinite(out).all()

    def test_empty_text_is_finite(self):
        tp, _ = enc.init_params(10, seed=0)
        out = enc.text_forward(tp, np.zeros((1, 256), dtype=np.int32), np.array([0]))
        assert np.isfinite(out).all()


class TestBackward:
    # Perturbation seeds: the first from 21 upward whose batch embeddings are
    # spread and whose +-h stencils cross no kink at any coordinate (text:
    # 21; shape: 22, as 21 flips a first-layer ReLU).
    def test_text_backward_matches_finite_differences(self):
        tp, _ = perturbed_params(21)
        rng = np.random.default_rng(5)
        tokens = rng.integers(2, 8, size=(2, 8))
        lengths = np.array([5, 7])
        probe = rng.normal(size=(2, 4))
        y, caches = enc.text_apply(tp, tokens, lengths)
        gc.assert_spread(y, "text")
        grads = enc.text_backward(tp, caches, probe)

        def loss():
            y, caches = enc.text_apply(tp, tokens, lengths)
            return float((y * probe).sum()), gc.text_kinks(caches)

        worst, _ = gc.check_gradients([(tp.arrays, tp.views(grads))], loss, h=1e-5, picks=8)
        assert worst < gc.RTOL

    def test_shape_backward_matches_finite_differences(self):
        _, sp = perturbed_params(22)
        rng = np.random.default_rng(6)
        grids = (rng.random((2, 16, 16, 16)) < 0.4).astype(np.float64)
        probe = rng.normal(size=(2, 4))
        y, caches = enc.shape_apply(sp, grids)
        gc.assert_spread(y, "shape")
        grads = enc.shape_backward(sp, caches, probe)

        def loss():
            y, caches = enc.shape_apply(sp, grids)
            return float((y * probe).sum()), gc.shape_kinks(caches)

        worst, _ = gc.check_gradients([(sp.arrays, sp.views(grads))], loss, h=1e-5, picks=8)
        assert worst < gc.RTOL


def tape_names(tape):
    """The parameter names of every tape entry, in tape order."""
    return [name for _, _, _, names in tape for name in names]


def layout_names(config):
    return [name for name, _, _ in config.layout()]


class TestTape:
    # the replay writes into np.empty_like, so a parameter the tape does not
    # name would get uninitialised memory for its gradient
    def test_text_tape_names_every_parameter_once(self):
        tp, _ = tiny_params()
        _, tape = enc.text_apply(tp, np.array([[2, 3, 4, 5]]), np.array([3]))
        assert sorted(tape_names(tape)) == sorted(layout_names(tp.config))

    @pytest.mark.parametrize("layers", range(3, 8))
    def test_shape_tape_names_every_parameter_once(self, layers):
        config = enc.ShapeEncoderConfig(**{**TINY_SHAPE, "num_conv_layers": layers})
        _, sp = enc.init_params(8, 0, enc.TextEncoderConfig(vocab_size=8, **TINY_TEXT),
                                config)
        _, tape = enc.shape_apply(sp, np.ones((1, 16, 16, 16)))
        assert sorted(tape_names(tape)) == sorted(layout_names(config))


def words(vocab_size):
    """A vocabulary that fits a text encoder of `vocab_size`: ids 2 .. size - 1."""
    return {f"w{i}": i for i in range(2, vocab_size)}


def parse(data):
    return enc.parse_checkpoint(io.BytesIO(data))


def _edit_header(change):
    """Checkpoint bytes -> the same bytes with `change` applied to the header."""
    def apply(data):
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        change(header)
        return json.dumps(header).encode("utf-8") + data[newline:]
    return apply


MALFORMED = {
    "unknown config key": _edit_header(lambda h: h["text_config"].update(depth=3)),
    "non-UTF-8 header": lambda data: b'{"format": "\xff"}' + data[data.index(b"\n"):],
    "non-JSON header": lambda data: b"{format" + data[data.index(b"\n"):],
    "version 1": _edit_header(lambda h: h.update(version=1)),
    "no version": _edit_header(lambda h: h.pop("version")),
}


# config values that JSON can hold but an int field cannot: each compares
# equal to the int it stands for in every check after the config is built
NOT_INTEGER = {
    "float in the text config": lambda h: h["text_config"].update(embed_dim=6.0),
    "float in the shape config": lambda h: h["shape_config"].update(front_channels=2.0),
    "float outside the layout": lambda h: h["text_config"].update(max_len=8.0),
    "bool": lambda h: h["text_config"].update(max_len=True),
    "float in a tuple": lambda h: h["shape_config"].update(back_channels=[3.0, 4, 5]),
}


class TestCheckpoint:
    def test_golden_bytes(self):
        # they pin the file format and the initializer's draw order. The
        # parameter bytes after the header line are the version-2 files':
        # version 3 changed the header (the version, and no resolution in
        # the shape config), and version 4 (the version, and no parameter
        # table), but not a single drawn weight
        def digests(data):
            body = data[data.index(b"\n") + 1:]
            return hashlib.sha256(data).hexdigest(), hashlib.sha256(body).hexdigest()

        tiny = enc.checkpoint_bytes(*tiny_params(dtype=np.float32), {"shaft": 2},
                                    {"seed": 11})
        assert digests(tiny) == (
            "fc41b5d098291df89c688c71bddacd27b5ce2f340da3a38832c81827965f8253",
            "acdad7eacb289a35796ef99f7e4603d0c70766a1ea8099dc8e5c1c2534d99497")
        full = enc.checkpoint_bytes(*enc.init_params(50, 42), {}, {})
        assert digests(full) == (
            "8e10ba1be09a89884466d5b849612974ac6beefd9005ab4da70b7b8e7b990a4d",
            "496dcc0c0d5cb7ea7af50b3ba8cd3f1cb7e0804b25ff8fa45e9ac32e48ffb309")

    def test_version_1_checkpoint_refused_with_both_versions_named(self):
        data = _edit_header(lambda h: h.update(version=1))(
            enc.checkpoint_bytes(*tiny_params(dtype=np.float32), words(8), {}))
        with pytest.raises(EncoderError, match="version 1 .* reads version 4"):
            parse(data)

    def test_version_2_checkpoint_refused_with_both_versions_named(self):
        # a version-2 file has the same layout but pads the middle stride-3
        # layer by 1, so it would load and then compute a different function
        data = _edit_header(lambda h: (h.update(version=2),
                                       h["shape_config"].update(resolution=16)))(
            enc.checkpoint_bytes(*tiny_params(dtype=np.float32), words(8), {}))
        with pytest.raises(EncoderError, match="version 2 .* reads version 4"):
            parse(data)

    def test_version_3_checkpoint_refused_with_both_versions_named(self):
        # a version-3 file holds the same configs and bytes, and a table of
        # parameter offsets that this version leaves out of its header
        data = _edit_header(lambda h: h.update(version=3, params=[]))(
            enc.checkpoint_bytes(*tiny_params(dtype=np.float32), words(8), {}))
        with pytest.raises(EncoderError, match="version 3 .* reads version 4"):
            parse(data)

    @pytest.mark.parametrize("corrupt", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_checkpoint_raises_encoder_error(self, corrupt):
        data = enc.checkpoint_bytes(*tiny_params(dtype=np.float32), words(8), {})
        parse(data)  # the corruption, not the rest of the file, is what is refused
        with pytest.raises(EncoderError):
            parse(corrupt(data))

    @pytest.mark.parametrize("vocab", [
        ["a"], {"a": 9}, {"a": "x"}, {},
        {**words(7)},                     # one id short
        {**words(8), "extra": 7},         # an id twice
        {**words(8), "w2": 1, "w1": 2},   # the reserved UNK id
        {**words(8), "w2": 2.0},          # a float id
        {**words(8), "w2": True, "w1": 2},
    ], ids=["list", "id-past-size", "string-id", "empty", "one-short", "repeated",
            "reserved", "float", "bool"])
    def test_vocab_that_does_not_fit_the_text_encoder_refused(self, vocab):
        data = enc.checkpoint_bytes(*tiny_params(dtype=np.float32), vocab, {})
        with pytest.raises(EncoderError, match="vocab must map words to the ids 2 .. 7"):
            parse(data)

    @pytest.mark.parametrize("change", NOT_INTEGER.values(), ids=NOT_INTEGER.keys())
    def test_config_value_that_is_not_an_integer_refused(self, change):
        data = enc.checkpoint_bytes(*tiny_params(dtype=np.float32), words(8), {})
        with pytest.raises(EncoderError, match="not (an integer|a list of integers)"):
            parse(_edit_header(change)(data))

    def test_round_trip_lossless(self, tmp_path):
        tp, sp = enc.init_params(12, seed=9)
        path = tmp_path / "model.ckpt"
        digest = enc.save_checkpoint(path, tp, sp, words(12), {"seed": 9})
        ck = enc.load_checkpoint(path)
        assert ck.fingerprint == digest
        assert ck.vocab_words == words(12)
        assert ck.meta == {"seed": 9}
        for a, b in ((tp, ck.text), (sp, ck.shape)):
            assert a.config == b.config
            assert np.array_equal(a.flat, b.flat)

    def test_identical_params_identical_bytes(self):
        tp, sp = enc.init_params(12, seed=9)
        a = enc.checkpoint_bytes(tp, sp, {}, {})
        b = enc.checkpoint_bytes(tp, sp, {}, {})
        assert a == b

    def test_truncated_blob_rejected(self, tmp_path):
        tp, sp = enc.init_params(12, seed=9)
        data = enc.checkpoint_bytes(tp, sp, words(12), {})
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data[:-100])
        with pytest.raises(EncoderError, match="truncated"):
            enc.load_checkpoint(path)

    def test_blob_truncated_in_the_text_buffer_names_the_entry(self):
        # the file's two entries after the header are the text and the
        # shape buffer; the error names the one cut short and its bytes
        tp, sp = tiny_params(dtype=np.float32)
        data = enc.checkpoint_bytes(tp, sp, words(8), {})
        start = data.index(b"\n") + 1
        embed = tp.arrays["embed"].nbytes
        with pytest.raises(EncoderError, match=(
                f"truncated in the text buffer: {embed + 4} of its "
                f"{tp.flat.nbytes} bytes$")):
            parse(data[:start + embed + 4])

    def test_blob_truncated_in_the_shape_buffer_names_it(self):
        tp, sp = tiny_params(dtype=np.float32)
        data = enc.checkpoint_bytes(tp, sp, words(8), {})
        with pytest.raises(EncoderError, match=(
                f"truncated in the shape buffer: {sp.flat.nbytes - 1} of its "
                f"{sp.flat.nbytes} bytes$")):
            parse(data[:-1])

    def test_loading_peaks_below_one_and_a_quarter_file_sizes(self, tmp_path):
        # each buffer is read straight into its array; reading the whole
        # file first and copying the buffers out peaks at twice its size
        path = tmp_path / "model.ckpt"
        enc.save_checkpoint(path, *enc.init_params(200, seed=9), words(200))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            checkpoint = enc.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert checkpoint.fingerprint == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < 1.25 * size, f"peak {peak} bytes for a {size}-byte file"

    @pytest.mark.parametrize("extra", [b"\0", b"trailing junk", bytes(4)],
                             ids=["one-byte", "text", "one-float"])
    def test_bytes_after_the_last_parameter_rejected(self, extra):
        tp, sp = enc.init_params(12, seed=9)
        data = enc.checkpoint_bytes(tp, sp, words(12), {})
        with pytest.raises(EncoderError, match=f"{len(extra)} bytes after its last"):
            parse(data + extra)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(EncoderError, match="not a rodfind checkpoint"):
            enc.load_checkpoint(path)
