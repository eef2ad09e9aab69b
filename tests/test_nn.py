"""Layer-level checks of `rodfind.nn`: adjoint (dot-product) tests of the
convolutions and a central-difference check of the masked GRU.

The convolutions are bilinear in (input, weight), so the backward pass is
exactly the adjoint of the forward: <conv(x), dy> = <x, dx> for a fixed
weight and <conv_w(w), dy> = <w, dw> for a fixed input, with no kink to
spoil the identity. Both sides add up the same products x * w * dy in
different orders, so in float64 they agree to a few eps times the sum of
the absolute products, which is <conv(|x|, |w|), |dy|>.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcheck as gc
from rodfind import nn

ADJOINT_RTOL = 1e-12


def assert_adjoint(lhs, rhs, scale):
    assert abs(lhs - rhs) <= ADJOINT_RTOL * scale, (lhs, rhs, scale)


def check_conv_adjoint(forward, backward, x, w, dy_seed, *args):
    zero_b = np.zeros(w.shape[0])
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
    b = np.random.default_rng(dy_seed + 1).standard_normal(w.shape[0])
    y_b = forward(np.zeros_like(x), w, b, *args)[0]
    assert_adjoint(float((y_b * dy).sum()), float(b @ db), float(np.abs(y_b * dy).sum()))


# (stride, pad) pairs the shape encoder uses, with the smallest edge that
# leaves at least one output position
CONV3D_LAYOUTS = [(1, 1, 1), (3, 1, 1), (3, 2, 1)]


@settings(max_examples=30, deadline=None, database=None)
@given(layout=st.sampled_from(CONV3D_LAYOUTS), extra=st.integers(0, 5),
       batch=st.integers(1, 2), cin=st.integers(1, 4), cout=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16))
def test_conv3d_backward_is_the_adjoint_of_the_forward(layout, extra, batch, cin, cout,
                                                       seed):
    stride, pad, min_edge = layout
    rng = np.random.default_rng(seed)
    d = min_edge + extra
    x = rng.standard_normal((batch, d, d, d, cin))
    w = rng.standard_normal((cout, cin, 3, 3, 3))
    check_conv_adjoint(nn.conv3d_forward, nn.conv3d_backward, x, w, seed, stride, pad)


def test_conv3d_adjoint_covers_unequal_channels_at_every_layout():
    for stride, pad, min_edge in CONV3D_LAYOUTS:
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.standard_normal((2, min_edge + 4, min_edge + 4, min_edge + 4, 3))
        w = rng.standard_normal((5, 3, 3, 3, 3))
        check_conv_adjoint(nn.conv3d_forward, nn.conv3d_backward, x, w, 7, stride, pad)


@settings(max_examples=30, deadline=None, database=None)
@given(batch=st.integers(1, 3), length=st.integers(1, 9), cin=st.integers(1, 5),
       cout=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_conv1d_backward_is_the_adjoint_of_the_forward(batch, length, cin, cout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, length, cin))
    w = rng.standard_normal((cout, cin, 3))
    check_conv_adjoint(nn.conv1d_forward, nn.conv1d_backward, x, w, seed)


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


def test_gru_single_row_matches_the_same_row_in_a_batch():
    # one row multiplies the transposed w_hh view, several a contiguous copy
    p = _GruParams(np.random.default_rng(5), batch=3, length=6, x_dim=3, hidden=4)
    lengths = np.array([6, 3, 5])
    batch, _ = nn.gru_forward(p.x, lengths, p.w_ih, p.w_hh, p.b_ih, p.b_hh)
    for i in range(3):
        single, _ = nn.gru_forward(p.x[i:i + 1], lengths[i:i + 1], p.w_ih, p.w_hh,
                                   p.b_ih, p.b_hh)
        np.testing.assert_allclose(single[0], batch[i], rtol=1e-13, atol=1e-15)
