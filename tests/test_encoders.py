import hashlib
import json

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


class TestShapeConfig:
    def test_spatial_trace_matches_conv_arithmetic(self):
        sizes, pooled = enc.ShapeEncoderConfig().spatial_trace()
        assert [16] + sizes == [16, 16, 16, 16, 16, 6, 2, 2]
        assert pooled == 1

    @pytest.mark.parametrize("layers", [3, 4, 5, 6, 7])
    def test_variable_depth_always_lands_on_the_pool(self, layers):
        cfg = enc.ShapeEncoderConfig(num_conv_layers=layers)
        sizes, pooled = cfg.spatial_trace()
        assert sizes[-1] == 2 and pooled == 1
        # the last layer's input is 2^3 at stride 3, pad 2: one live tap per
        # window, which is what lets it store only those taps
        assert sizes[-2] == 2 and cfg.layer_plan()[-1][2:] == (3, 2)
        assert len(cfg.layer_plan()) == layers

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
        y, caches = enc.text_apply(tp, tokens, lengths, with_cache=True)
        gc.assert_spread(y, "text")
        grads = enc.text_backward(tp, caches, probe)

        def loss():
            y, caches = enc.text_apply(tp, tokens, lengths, with_cache=True)
            return float((y * probe).sum()), gc.text_kinks(caches)

        worst, _ = gc.check_gradients([(tp.arrays, tp.views(grads))], loss, h=1e-5, picks=8)
        assert worst < gc.RTOL

    def test_shape_backward_matches_finite_differences(self):
        _, sp = perturbed_params(22)
        rng = np.random.default_rng(6)
        grids = (rng.random((2, 16, 16, 16)) < 0.4).astype(np.float64)
        probe = rng.normal(size=(2, 4))
        y, caches = enc.shape_apply(sp, grids, with_cache=True)
        gc.assert_spread(y, "shape")
        grads = enc.shape_backward(sp, caches, probe)

        def loss():
            y, caches = enc.shape_apply(sp, grids, with_cache=True)
            return float((y * probe).sum()), gc.shape_kinks(caches)

        worst, _ = gc.check_gradients([(sp.arrays, sp.views(grads))], loss, h=1e-5, picks=8)
        assert worst < gc.RTOL


def _edit_header(change):
    """Checkpoint bytes -> the same bytes with `change` applied to the header."""
    def apply(data):
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        change(header)
        return json.dumps(header).encode("utf-8") + data[newline:]
    return apply


MALFORMED = {
    "short nbytes": _edit_header(lambda h: h["params"][1].update(nbytes=4)),
    "wrong shape": _edit_header(lambda h: h["params"][1].update(shape=[5, 6, 4])),
    "aliasing entries": _edit_header(
        lambda h: h["params"][3].update(offset=h["params"][1]["offset"])),
    "no params": _edit_header(lambda h: h.pop("params")),
    "unknown config key": _edit_header(lambda h: h["text_config"].update(depth=3)),
    "non-UTF-8 header": lambda data: b'{"format": "\xff"}' + data[data.index(b"\n"):],
    "non-JSON header": lambda data: b"{format" + data[data.index(b"\n"):],
    "version 1": _edit_header(lambda h: h.update(version=1)),
    "no version": _edit_header(lambda h: h.pop("version")),
}


class TestCheckpoint:
    def test_golden_bytes(self):
        # they pin the file format and the initializer's draw order; these are
        # the version-1 files' bytes with the version set to 2 and the last
        # shape layer's entry and data cut to its live taps
        tiny = enc.checkpoint_bytes(*tiny_params(dtype=np.float32), {"shaft": 2},
                                    {"seed": 11})
        assert hashlib.sha256(tiny).hexdigest() == (
            "8b4292d20081856bda847bc0bb8f32f78069fa358cc8d99f4be9453daca44de7")
        full = enc.checkpoint_bytes(*enc.init_params(50, 42), {}, {})
        assert hashlib.sha256(full).hexdigest() == (
            "cb6e76243e10223e1562a8677af9d57bfe1cd201e31a18d9c67f027b03081818")

    def test_version_1_checkpoint_refused_with_both_versions_named(self):
        data = _edit_header(lambda h: h.update(version=1))(
            enc.checkpoint_bytes(*tiny_params(dtype=np.float32), {}, {}))
        with pytest.raises(EncoderError, match="version 1 .* reads version 2"):
            enc.parse_checkpoint(data)

    @pytest.mark.parametrize("corrupt", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_checkpoint_raises_encoder_error(self, corrupt):
        data = enc.checkpoint_bytes(*tiny_params(dtype=np.float32), {}, {})
        with pytest.raises(EncoderError):
            enc.parse_checkpoint(corrupt(data))

    def test_round_trip_lossless(self, tmp_path):
        tp, sp = enc.init_params(12, seed=9)
        path = tmp_path / "model.ckpt"
        digest = enc.save_checkpoint(path, tp, sp, {"shaft": 2}, {"seed": 9})
        ck = enc.load_checkpoint(path)
        assert ck.fingerprint == digest
        assert ck.vocab_words == {"shaft": 2}
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
        data = enc.checkpoint_bytes(tp, sp, {}, {})
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data[:-100])
        with pytest.raises(EncoderError, match="truncated"):
            enc.load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(EncoderError, match="not a rodfind checkpoint"):
            enc.load_checkpoint(path)
