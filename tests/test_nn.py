"""Layer-level checks of `rodfind.nn`: the 3-d convolution's forward against
a float64 loop over its 27 taps, adjoint (dot-product) tests of the
convolutions and the per-position layer, the max pool against a per-channel
loop, the per-position layer against the stride-3 convolution it stands for,
and the masked GRU against central differences and a per-step loop.

The convolutions are bilinear in (input, weight), so the backward pass is
exactly the adjoint of the forward: <conv(x), dy> = <x, dx> for a fixed
weight and <conv_w(w), dy> = <w, dw> for a fixed input, with no kink to
spoil the identity. Both sides add up the same products x * w * dy in
different orders, so in float64 they agree to a few eps times the sum of
the absolute products, which is <conv(|x|, |w|), |dy|>.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import gradcheck as gc
from rodfind import encoders as enc
from rodfind import nn

ADJOINT_RTOL = 1e-12


def assert_adjoint(lhs, rhs, scale):
    assert abs(lhs - rhs) <= ADJOINT_RTOL * scale, (lhs, rhs, scale)


def check_conv_adjoint(forward, backward, x, w, dy_seed, *args, cout_axis=0):
    zero_b = np.zeros(w.shape[cout_axis])
    y, cache = forward(x, w, zero_b, *args)
    dy = np.random.default_rng(dy_seed).standard_normal(y.shape)
    dx, dw, db = backward(cache, dy)
    assert dx.shape == x.shape and dw.shape == w.shape and db.shape == zero_b.shape
    scale = float((forward(np.abs(x), np.abs(w), zero_b, *args)[0] * np.abs(dy)).sum())
    # y = conv(x, w) is linear in x with w fixed and in w with x fixed, so
    # both identities use the same <y, dy>
    lhs = float((y * dy).sum())
    assert_adjoint(lhs, float((x * dx).sum()), scale)
    assert_adjoint(lhs, float((w * dw).sum()), scale)
    # the bias adds b to every output position
    b = np.random.default_rng(dy_seed + 1).standard_normal(w.shape[cout_axis])
    y_b = forward(np.zeros_like(x), w, b, *args)[0]
    assert_adjoint(float((y_b * dy).sum()), float(b @ db), float(np.abs(y_b * dy).sum()))


# the (stride, pad) pairs the shape encoder uses, each with the smallest
# edge that leaves at least one output position; a test draws the edge
# min_edge + stride * extra, so stride-3 windows always tile the padded grid
CONV3D_LAYOUTS = [(1, 1, 1), (3, 1, 1), (3, 2, 2), (3, 0, 3)]


@settings(max_examples=30, deadline=None, database=None)
@given(layout=st.sampled_from(CONV3D_LAYOUTS), extra=st.integers(0, 5),
       batch=st.integers(1, 2), cin=st.integers(1, 4), cout=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16))
def test_conv3d_backward_is_the_adjoint_of_the_forward(layout, extra, batch, cin, cout,
                                                       seed):
    stride, pad, min_edge = layout
    rng = np.random.default_rng(seed)
    d = min_edge + stride * extra
    x = rng.standard_normal((batch, d, d, d, cin))
    w = rng.standard_normal((cout, cin, 3, 3, 3))
    check_conv_adjoint(nn.conv3d_forward, nn.conv3d_backward, x, w, seed, stride, pad)


def test_conv3d_adjoint_covers_unequal_channels_at_every_layout():
    for stride, pad, min_edge in CONV3D_LAYOUTS:
        rng = np.random.default_rng(stride * 10 + pad)
        d = min_edge + 4 * stride
        x = rng.standard_normal((2, d, d, d, 3))
        w = rng.standard_normal((5, 3, 3, 3, 3))
        check_conv_adjoint(nn.conv3d_forward, nn.conv3d_backward, x, w, 7, stride, pad)


def reference_conv3d(x, w, b, stride, pad):
    """The convolution as a float64 sum over the 27 taps, one tap per term."""
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    d = x.shape[1]
    out = (d + 2 * pad - 3) // stride + 1
    xp = np.pad(x, [(0, 0)] + [(pad, pad)] * 3 + [(0, 0)])
    span = stride * (out - 1) + 1
    y = np.zeros((x.shape[0], out, out, out, w.shape[0])) + b
    for i, j, k in np.ndindex(3, 3, 3):
        y += xp[:, i:i + span:stride, j:j + span:stride, k:k + span:stride] @ w[:, :, i, j, k].T
    return y


def check_conv3d_forward(x, w, b, stride, pad, dtype):
    # both sides add the same products in different orders; the bound is
    # relative to the sum of their absolute values
    rtol = {np.float64: 1e-12, np.float32: 1e-5}[dtype]
    x, w, b = (a.astype(dtype) for a in (x, w, b))
    y, _ = nn.conv3d_forward(x, w, b, stride, pad)
    assert y.dtype == dtype
    want = reference_conv3d(x, w, b, stride, pad)
    scale = reference_conv3d(np.abs(x), np.abs(w), np.abs(b), stride, pad)
    assert y.shape == want.shape
    assert (np.abs(y - want) <= rtol * scale).all()


@settings(max_examples=30, deadline=None, database=None)
@given(layout=st.sampled_from(CONV3D_LAYOUTS), extra=st.integers(0, 5),
       batch=st.integers(1, 2), cin=st.integers(1, 5), cout=st.integers(1, 5),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2 ** 16))
def test_conv3d_forward_matches_the_27_tap_reference(layout, extra, batch, cin, cout,
                                                      dtype, seed):
    stride, pad, min_edge = layout
    rng = np.random.default_rng(seed)
    d = min_edge + stride * extra
    check_conv3d_forward(rng.standard_normal((batch, d, d, d, cin)),
                         rng.standard_normal((cout, cin, 3, 3, 3)),
                         rng.standard_normal(cout), stride, pad, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv3d_forward_covers_unequal_channels_at_every_layout(dtype):
    for stride, pad, min_edge in CONV3D_LAYOUTS:
        for cin, cout in [(2, 5), (5, 1)]:
            rng = np.random.default_rng(stride * 10 + pad + cin)
            d = min_edge + 4 * stride
            check_conv3d_forward(rng.standard_normal((2, d, d, d, cin)),
                                 rng.standard_normal((cout, cin, 3, 3, 3)),
                                 rng.standard_normal(cout), stride, pad, dtype)


def test_stride_1_conv3d_forward_peaks_below_the_27_tap_columns():
    # the 27 * Cin-wide columns of every output voxel would alone be this big
    batch, d, cin, cout = 4, 16, 4, 4
    rng = np.random.default_rng(3)
    x = rng.standard_normal((batch, d, d, d, cin)).astype(np.float32)
    w = rng.standard_normal((cout, cin, 3, 3, 3)).astype(np.float32)
    b = np.zeros(cout, np.float32)
    tracemalloc.start()
    try:
        nn.conv3d_forward(x, w, b, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch * d ** 3 * 27 * cin * 4, peak


@settings(max_examples=30, deadline=None, database=None)
@given(batch=st.integers(1, 3), length=st.integers(1, 9), cin=st.integers(1, 5),
       cout=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_conv1d_backward_is_the_adjoint_of_the_forward(batch, length, cin, cout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, length, cin))
    w = rng.standard_normal((cout, cin, 3))
    check_conv_adjoint(nn.conv1d_forward, nn.conv1d_backward, x, w, seed)


def test_conv3d_backward_without_input_grad_gives_the_same_weight_grads():
    rng = np.random.default_rng(12)
    for stride, pad, edge in [(1, 1, 5), (3, 1, 7)]:
        x = rng.standard_normal((2, edge, edge, edge, 3)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        y, cache = nn.conv3d_forward(x, w, np.zeros(4, np.float32), stride, pad)
        dy = rng.standard_normal(y.shape).astype(np.float32)
        _, dw, db = nn.conv3d_backward(cache, dy)
        dx, dw_only, db_only = nn.conv3d_backward(cache, dy, input_grad=False)
        assert dx is None
        assert np.array_equal(dw, dw_only) and np.array_equal(db, db_only)


def test_conv3d_forward_refuses_a_stride_it_does_not_handle():
    # the layouts the backward cannot differentiate: any stride but 1 and 3,
    # stride 1 at any pad but 1, and stride 3 where the windows do not tile
    # the padded grid, such as conv6's old pad of 1 on its 6^3 input
    for stride, pad, edge in [(2, 1, 4), (1, 0, 4), (1, 2, 4), (3, 0, 2), (3, 1, 6)]:
        x = np.zeros((1, edge, edge, edge, 1))
        with pytest.raises(ValueError, match=f"not stride {stride} at pad {pad}"):
            nn.conv3d_forward(x, np.zeros((1, 1, 3, 3, 3)), np.zeros(1), stride, pad)


# ---------------------------------------------------------------------------
# the last shape layer: eight per-position maps in place of a stride-3 conv

@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13), (np.float32, 1e-5)])
def test_position_linear_is_the_stride_3_pad_2_conv_of_a_2_cube(dtype, rtol):
    # every weight of the full kernel random, the 19 dead taps included: the
    # conv never lets them touch a real voxel, so they must not matter. The
    # two sides sum the same products over Cin in different orders; rtol is
    # relative to the sum of their absolute values.
    rng = np.random.default_rng(13)
    for batch, cin, cout in [(1, 1, 1), (4, 5, 3), (3, 16, 24)]:
        x = rng.standard_normal((batch, 2, 2, 2, cin)).astype(dtype)
        w = rng.standard_normal((cout, cin, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        dy = rng.standard_normal((batch, 2, 2, 2, cout)).astype(dtype)
        want_y, conv_cache = nn.conv3d_forward(x, w, b, 3, 2)
        want_dx, want_dw, want_db = nn.conv3d_backward(conv_cache, dy)
        taps = enc.live_taps(w)
        y, cache = nn.position_linear_forward(x, taps, b)
        dx, dw, db = nn.position_linear_backward(cache, dy)
        abs_taps = enc.live_taps(np.abs(w))
        scale_y = nn.position_linear_forward(np.abs(x), abs_taps, np.abs(b))[0]
        scale_dx = np.abs(dy).reshape(batch, 8, cout).transpose(1, 0, 2) @ \
            abs_taps.transpose(0, 2, 1)
        scale_dw = np.abs(x).reshape(batch, 8, cin).transpose(1, 2, 0) @ \
            np.abs(dy).reshape(batch, 8, cout).transpose(1, 0, 2)
        assert y.dtype == dtype and y.shape == want_y.shape
        assert (np.abs(y - want_y) <= rtol * scale_y).all()
        assert (np.abs(dx - want_dx).reshape(batch, 8, cin).transpose(1, 0, 2)
                <= rtol * scale_dx).all()
        assert (np.abs(dw - enc.live_taps(want_dw)) <= rtol * scale_dw).all()
        assert np.allclose(db, want_db, rtol=rtol, atol=0)
        # the conv's dead taps get exactly zero gradient
        dead = np.ones((3, 3, 3), bool)
        dead[::2, ::2, ::2] = False
        assert (want_dw[:, :, dead] == 0).all()


@settings(max_examples=30, deadline=None, database=None)
@given(batch=st.integers(1, 3), cin=st.integers(1, 5), cout=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
def test_position_linear_backward_is_the_adjoint_of_the_forward(batch, cin, cout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 2, 2, 2, cin))
    w = rng.standard_normal((8, cin, cout))
    check_conv_adjoint(nn.position_linear_forward, nn.position_linear_backward, x, w, seed,
                       cout_axis=2)


# ---------------------------------------------------------------------------
# max pool

def reference_maxpool3d(x, dy):
    """Per (b, c): the first maximum over the 2x2x2 offsets in C order, its
    offset, and the input gradient that routes dy to it alone."""
    B, C = x.shape[0], x.shape[4]
    y = np.zeros((B, C), dtype=x.dtype)
    best = np.zeros((B, C), dtype=np.int64)
    dx = np.zeros_like(x)
    offsets = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    for b in range(B):
        for c in range(C):
            values = [x[b, i, j, k, c] for i, j, k in offsets]
            winner = values.index(max(values))
            y[b, c] = values[winner]
            best[b, c] = winner
            dx[(b, *offsets[winner], c)] = dy[b, c]
    return y, best, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool3d_matches_the_per_channel_reference_under_ties(dtype):
    rng = np.random.default_rng(8)
    for _ in range(20):
        # three levels over eight positions: most channels tie at the max
        x = rng.integers(-1, 2, size=(3, 2, 2, 2, 5)).astype(dtype)
        dy = rng.standard_normal((3, 5)).astype(dtype)
        want_y, want_best, want_dx = reference_maxpool3d(x, dy)
        y, cache = nn.maxpool3d_forward(x)
        assert y.dtype == dtype and np.array_equal(y, want_y)
        assert np.array_equal(cache[0].reshape(3, 5), want_best)
        dx = nn.maxpool3d_backward(cache, dy)
        assert dx.dtype == dtype and np.array_equal(dx, want_dx)


# ---------------------------------------------------------------------------
# GRU

class _GruParams:
    """The GRU's weights and its input, in `arrays`, a dict from name to array
    that gradcheck perturbs in place."""

    def __init__(self, rng, batch, length, x_dim, hidden):
        self.x = rng.standard_normal((batch, length, x_dim))
        self.w_ih = rng.uniform(-0.8, 0.8, size=(3 * hidden, x_dim))
        self.w_hh = rng.uniform(-0.8, 0.8, size=(3 * hidden, hidden))
        self.b_ih = rng.uniform(-0.5, 0.5, size=3 * hidden)
        self.b_hh = rng.uniform(-0.5, 0.5, size=3 * hidden)
        self.arrays = {name: getattr(self, name)
                       for name in ("x", "w_ih", "w_hh", "b_ih", "b_hh")}


def test_gru_backward_matches_finite_differences_with_masked_steps():
    # rows that stop early (and one empty row) leave masked steps, whose
    # rows of the stacked dgh must be zero in the single dw_hh GEMM
    p = _GruParams(np.random.default_rng(3), batch=4, length=7, x_dim=3, hidden=4)
    lengths = np.array([7, 4, 0, 2])
    probe = np.random.default_rng(4).standard_normal((4, 4))

    def loss():
        pooled, _ = nn.gru_forward(p.x, lengths, p.w_ih, p.w_hh, p.b_ih, p.b_hh)
        return float((pooled * probe).sum()), ()

    _, cache = nn.gru_forward(p.x, lengths, p.w_ih, p.w_hh, p.b_ih, p.b_hh)
    dx, dw_ih, dw_hh, db_ih, db_hh = nn.gru_backward(cache, probe)
    grads = {"x": dx, "w_ih": dw_ih, "w_hh": dw_hh, "b_ih": db_ih, "b_hh": db_hh}
    # tokens past a row's length cannot reach the output
    assert (dx[1, 4:] == 0).all() and (dx[2] == 0).all() and (dx[3, 2:] == 0).all()
    worst, checked = gc.check_gradients([(p.arrays, grads)], loss, h=1e-5)
    assert checked == sum(a.size for a in p.arrays.values())
    assert worst < gc.RTOL


def reference_gru(x, lengths, w_ih, w_hh, b_ih, b_hh, dpool):
    """The masked GRU as a per-step loop with scipy's sigmoid, forward and
    backward: the mean of the valid states and the gradients of
    <mean, dpool> w.r.t. x, w_ih, w_hh, b_ih and b_hh."""
    B, L, _ = x.shape
    H = w_hh.shape[1]
    steps = int(min(L, max(lengths, default=0)))
    gx_all = x @ w_ih.T + b_ih
    h = np.zeros((B, H))
    denom = np.maximum(lengths, 1)[:, None]
    pooled = np.zeros((B, H))
    trace = []
    for t in range(steps):
        gh = h @ w_hh.T + b_hh
        gx = gx_all[:, t]
        r = expit(gx[:, :H] + gh[:, :H])
        z = expit(gx[:, H:2 * H] + gh[:, H:2 * H])
        n = np.tanh(gx[:, 2 * H:] + r * gh[:, 2 * H:])
        active = (t < lengths)[:, None]
        trace.append((h, r, z, n, gh[:, 2 * H:], active))
        h = np.where(active, (1.0 - z) * n + z * h, h)
        pooled += np.where(active, h, 0.0)
    dgx_all = np.zeros_like(gx_all)
    dw_hh, db_hh = np.zeros_like(w_hh), np.zeros_like(b_hh)
    dh = np.zeros((B, H))
    for t in range(steps - 1, -1, -1):
        h_prev, r, z, n, gh_n, active = trace[t]
        dh = dh + np.where(active, dpool / denom, 0.0)
        dh_new = np.where(active, dh, 0.0)
        dn_pre = dh_new * (1.0 - z) * (1.0 - n * n)
        dgh = np.concatenate([dn_pre * gh_n * r * (1.0 - r),
                              dh_new * (h_prev - n) * z * (1.0 - z), dn_pre * r], axis=1)
        dgx_all[:, t] = np.concatenate([dgh[:, :2 * H], dn_pre], axis=1)
        dw_hh += dgh.T @ h_prev
        db_hh += dgh.sum(axis=0)
        dh = np.where(active, dh * z, dh) + dgh @ w_hh
    dgx2 = dgx_all.reshape(B * L, 3 * H)
    return (pooled / denom, (dgx_all @ w_ih, dgx2.T @ x.reshape(B * L, -1), dw_hh,
                             dgx2.sum(axis=0), db_hh))


# Set from the dtype before the loop was rewritten: each value may differ from
# the float64 reference by this much times the largest magnitude in its
# array. The tanh form of the sigmoid and the reordered products move each
# step's values by a few ulp, and a few steps compound them: 1e-12 is ~4500
# float64 eps, 1e-5 ~80 float32 eps.
GRU_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("lengths, length", [([5], 7), ([0], 4), ([7, 4, 0, 2], 9)],
                         ids=["B1-tail", "B1-empty", "B4-masked"])
def test_gru_matches_the_per_step_reference(dtype, lengths, length):
    lengths = np.array(lengths)
    p = _GruParams(np.random.default_rng(len(lengths) + length), batch=len(lengths),
                   length=length, x_dim=3, hidden=5)
    dpool = np.random.default_rng(9).standard_normal((len(lengths), 5))
    want_y, want_grads = reference_gru(p.x, lengths, p.w_ih, p.w_hh, p.b_ih, p.b_hh, dpool)
    args = [a.astype(dtype) for a in (p.x, p.w_ih, p.w_hh, p.b_ih, p.b_hh)]
    y, cache = nn.gru_forward(args[0], lengths, *args[1:])
    grads = nn.gru_backward(cache, dpool.astype(dtype))
    for got, want in zip((y, *grads), (want_y, *want_grads)):
        assert got.dtype == dtype and got.shape == want.shape
        scale = max(np.abs(want).max(), np.finfo(np.float64).tiny)
        assert np.abs(got - want).max() <= GRU_RTOL[dtype] * scale


def test_gru_single_row_matches_the_same_row_in_a_batch():
    # a row's state does not depend on the other rows of its batch
    p = _GruParams(np.random.default_rng(5), batch=3, length=6, x_dim=3, hidden=4)
    lengths = np.array([6, 3, 5])
    batch, _ = nn.gru_forward(p.x, lengths, p.w_ih, p.w_hh, p.b_ih, p.b_hh)
    for i in range(3):
        single, _ = nn.gru_forward(p.x[i:i + 1], lengths[i:i + 1], p.w_ih, p.w_hh,
                                   p.b_ih, p.b_hh)
        np.testing.assert_allclose(single[0], batch[i], rtol=1e-13, atol=1e-15)
