"""Differentiable layer primitives on numpy arrays.

Every layer is a (forward, backward) pair: forward returns the output plus a
cache, backward consumes the cache and the output cotangent and returns the
input cotangent plus parameter gradients. All functions work in whatever
float dtype the parameters carry (float32 for training, float64 for
finite-difference checks).

Two rules keep numpy's calls cheap. Every GEMM with one weight runs on
2-D operands: batched inputs are reshaped to (rows, features) first and the
result is reshaped back, since `@` on a stack of matrices runs one small
GEMM per leading index (which is what the per-position layer, with a weight
per position, wants). A weight used transposed inside a per-step loop is
made contiguous once per call, not read through the transposed view each
step, at every batch size: even a single row multiplies the transposed
view more slowly than the copy (20-24 against 16-21 us per GRU step, H=256,
float32, one thread of a 2-vCPU x86 VM).

The GRU's one per-step loop allocates nothing. Each step writes through
`out=` into arrays made once per call: every call keeps the trace the
backward reads, time-major, (steps, B, width) per quantity. The loop only
steps the recurrence; the summary is one masked sum over the kept states
after it. The backward computes its per-step factors for all steps at
once, leaving the loop a handful of calls. The sigmoid is
0.5 * tanh(0.5 * x) + 0.5, in place; it differs from the exact logistic by
at most 6e-8 in float32 and 2.2e-16 in float64 (absolute; relative
accuracy is lost only where a gate is below ~1e-7).

The 3-d convolution takes two layouts, one path each: stride 1 at pad 1,
and stride 3 at a pad that makes the padded edge a multiple of 3. The
forward raises ValueError for any other, which the backward could not
differentiate. Stride 1 lowers its input to plane columns, the 3x3 in-plane
windows of every padded plane: 9 * Cin wide, (D + 2) / D * 9 / 27 the size
of the 27 * Cin-wide columns (0.375 at D = 16). One GEMM per kernel plane
maps them all, and each output plane adds three of the products (MEC, Cho &
Brand, arXiv:1706.06873). Its weight gradient is one batched GEMM per
kernel plane over the same columns; its input gradient is the same
plane-column convolution of dy with the kernel flipped in space and
transposed in channels. Stride-3 windows of a kernel-3 convolution tile
such a padded grid without overlap, so their 27 * Cin-wide columns are a
block reshape of it; the backward places each column gradient in a block of
its own and slices off the pad. Against a float64 loop over the 27 taps, a
float32 forward is within 1e-5 of the sum of the absolute products; only
the order of the sums differs.

Layers that only move values index by reshaping, not by looping over
window offsets: stride-3 windows of a kernel-3 convolution do not overlap,
and the pool's input is always a 2x2x2 map.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

L2_EPS = 1e-12


# ---------------------------------------------------------------------------
# embedding with tail masking

def embedding_forward(ids, lengths, table):
    """Look up token embeddings; positions at or beyond each sample's length
    are zeroed so the output depends only on tokens[:length]."""
    B, L = ids.shape
    mask = (np.arange(L)[None, :] < np.asarray(lengths)[:, None])
    out = table[ids] * mask[:, :, None]
    return out, (ids, mask, table.shape)


def embedding_backward(cache, d_out):
    ids, mask, shape = cache
    d_out = d_out * mask[:, :, None]
    d_table = np.zeros(shape, dtype=d_out.dtype)
    np.add.at(d_table, ids.ravel(), d_out.reshape(-1, shape[1]))
    return None, d_table  # the ids are data: no gradient to pass on


# ---------------------------------------------------------------------------
# 1-d convolution over the sequence axis (kernel 3, stride 1, padding 1)

def conv1d_forward(x, w, b):
    """x: (B, L, Cin); w: (Cout, Cin, 3); length is preserved."""
    B, L, cin = x.shape
    cout = w.shape[0]
    xp = np.zeros((B, L + 2, cin), dtype=x.dtype)
    xp[:, 1:-1] = x
    cols = np.concatenate([xp[:, 0:L], xp[:, 1:L + 1], xp[:, 2:L + 2]], axis=2)
    cols = cols.reshape(B * L, 3 * cin)
    wmat = w.transpose(2, 1, 0).reshape(3 * cin, cout)
    y = (cols @ wmat + b).reshape(B, L, cout)
    return y, (cols, wmat, x.shape, w.shape)


def conv1d_backward(cache, dy):
    cols, wmat, x_shape, w_shape = cache
    B, L, cin = x_shape
    cout = w_shape[0]
    dy2 = dy.reshape(B * L, cout)
    dw = (dy2.T @ cols).reshape(cout, 3, cin).transpose(0, 2, 1)
    db = dy2.sum(axis=0)
    dcols = (dy2 @ wmat.T).reshape(B, L, 3 * cin)
    dxp = np.zeros((B, L + 2, cin), dtype=dy.dtype)
    dxp[:, 0:L] += dcols[:, :, 0:cin]
    dxp[:, 1:L + 1] += dcols[:, :, cin:2 * cin]
    dxp[:, 2:L + 2] += dcols[:, :, 2 * cin:]
    return dxp[:, 1:-1], dw, db


# ---------------------------------------------------------------------------
# 3-d convolution (kernel 3; stride 1 at padding 1, or stride 3), channels last

def _plane_conv3d(x, w3):
    """Stride-1, pad-1 convolution of x (B, D, D, D, Cin) without bias, and
    its plane columns. w3 is (3, 9 * Cin, Cout): one kernel plane per depth
    offset a, rows in (row offset, column offset, Cin) order.

    The columns hold the 3x3 in-plane windows of every padded plane,
    (B * (D + 2) * D^2, 9 * Cin); one GEMM per kernel plane a maps them all,
    and output plane o adds plane o + a of the a-th product."""
    B, D, cin = x.shape[0], x.shape[1], x.shape[4]
    xp = np.zeros((B, D + 2, D + 2, D + 2, cin), dtype=x.dtype)
    xp[:, 1:-1, 1:-1, 1:-1] = x
    windows = sliding_window_view(xp, (3, 3), axis=(2, 3))  # (B, D + 2, D, D, Cin, 3, 3)
    cols = windows.transpose(0, 1, 2, 3, 5, 6, 4).reshape(-1, 9 * cin)
    z = np.matmul(cols, w3).reshape(3, B, D + 2, D * D, w3.shape[2])
    y = np.add(z[0, :, 0:D], z[1, :, 1:D + 1])
    y += z[2, :, 2:D + 2]
    return y.reshape(B, D, D, D, -1), cols


def _blocks(x, pad):
    """Columns of every stride-3 window of x padded by `pad`, (B * out^3,
    27 * Cin), window offsets outermost, then channels; also returns out.
    The windows tile the padded grid, so the columns are a reshape of it."""
    B, D, cin = x.shape[0], x.shape[1], x.shape[4]
    out = (D + 2 * pad) // 3
    xp = np.zeros((B, 3 * out, 3 * out, 3 * out, cin), dtype=x.dtype)
    xp[:, pad:pad + D, pad:pad + D, pad:pad + D] = x
    blocks = xp.reshape(B, out, 3, out, 3, out, 3, cin).transpose(0, 1, 3, 5, 2, 4, 6, 7)
    return blocks.reshape(B * out ** 3, 27 * cin), out


def conv3d_forward(x, w, b, stride, pad):
    """x: (B, D, D, D, Cin); w: (Cout, Cin, 3, 3, 3); stride 1 at pad 1, or
    stride 3 at a pad that makes D + 2 * pad a multiple of 3. The cache is
    (columns, the (27 * Cin, Cout) weights, x's shape, pad, stride)."""
    cin, cout = x.shape[4], w.shape[0]
    if stride == 1 and pad == 1:
        w3 = w.transpose(2, 3, 4, 1, 0).reshape(3, 9 * cin, cout)
        y, cols = _plane_conv3d(x, w3)
        y += b
        return y, (cols, w3.reshape(27 * cin, cout), x.shape, pad, stride)
    if stride != 3 or (x.shape[1] + 2 * pad) % 3:
        raise ValueError(f"conv3d handles stride 1 at pad 1 and stride 3 where the "
                         f"padded edge is a multiple of 3, not stride {stride} at pad "
                         f"{pad} over edge {x.shape[1]}")
    cols, out = _blocks(x, pad)
    # (27 * Cin, Cout) as the transpose of a copy that keeps Cout outermost,
    # which moves memory in far longer runs than copying to this layout
    wmat = w.transpose(0, 2, 3, 4, 1).reshape(cout, 27 * cin).T
    y = (cols @ wmat + b).reshape(x.shape[0], out, out, out, cout)
    return y, (cols, wmat, x.shape, pad, stride)


def conv3d_backward(cache, dy, input_grad=True):
    """(dx, dw, db); dx is None without `input_grad`, for a layer whose
    input is data."""
    cols, wmat, x_shape, pad, stride = cache
    B, D, cin = x_shape[0], x_shape[1], x_shape[4]
    cout = wmat.shape[1]
    dy2 = dy.reshape(-1, cout)
    # a GEMV: numpy's column sum over a few channels is ~25x slower
    db = np.ones(len(dy2), dy.dtype) @ dy2
    if stride == 1:
        # kernel plane a saw padded planes a .. a + D - 1 of every sample
        plane = D * D
        sample_cols = cols.reshape(B, (D + 2) * plane, 9 * cin)
        dy3 = dy.reshape(B, D * plane, cout)
        dw3 = np.stack([(sample_cols[:, a * plane:(a + D) * plane].transpose(0, 2, 1)
                         @ dy3).sum(axis=0) for a in range(3)])
        dw = dw3.reshape(3, 3, 3, cin, cout).transpose(4, 3, 0, 1, 2)
        if not input_grad:
            return None, dw, db
        # dx is the same-padded correlation of dy with the kernel flipped in
        # space and transposed in channels
        wflip = wmat.reshape(3, 3, 3, cin, cout)[::-1, ::-1, ::-1].transpose(
            0, 1, 2, 4, 3).reshape(3, 9 * cout, cin)
        return _plane_conv3d(dy, wflip)[0], dw, db
    dw = (dy2.T @ cols).reshape(cout, 27, cin).swapaxes(1, 2).reshape(cout, cin, 3, 3, 3)
    if not input_grad:
        return None, dw, db
    # each window's column gradient fills its own 3x3x3 block, as in _blocks
    out = dy.shape[1]
    dxp = (dy2 @ wmat.T).reshape(B, out, out, out, 3, 3, 3, cin).transpose(
        0, 1, 4, 2, 5, 3, 6, 7).reshape(B, 3 * out, 3 * out, 3 * out, cin)
    return dxp[:, pad:pad + D, pad:pad + D, pad:pad + D], dw, db


def position_linear_forward(x, w, b):
    """A Cin -> Cout map of its own at each of the P positions of x:
    x: (B, ..., Cin) with P positions between the batch and channel axes;
    w: (P, Cin, Cout); b: (Cout,)."""
    B, cin = x.shape[0], x.shape[-1]
    xp = x.reshape(B, -1, cin).transpose(1, 0, 2)  # (P, B, Cin)
    y = (xp @ w + b).transpose(1, 0, 2)
    return y.reshape(*x.shape[:-1], w.shape[2]), (xp, w, x.shape)


def position_linear_backward(cache, dy):
    xp, w, x_shape = cache
    dyp = dy.reshape(x_shape[0], -1, w.shape[2]).transpose(1, 0, 2)  # (P, B, Cout)
    dx = (dyp @ w.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(x_shape)
    return dx, xp.transpose(0, 2, 1) @ dyp, dyp.sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# pointwise / pooling / dense layers

def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(mask, dy):
    return dy * mask


def maxpool3d_forward(x):
    """2x2x2 max pooling of the (B, 2, 2, 2, C) map that ends the shape
    encoder's convolutions: the max over its eight positions, as (B, C).
    Ties go to the first position in C order; the winners' indices are
    cache[0]."""
    B, C = x.shape[0], x.shape[4]
    flat = x.reshape(B, 8, C)
    best = flat.argmax(axis=1)[:, None]
    y = np.take_along_axis(flat, best, axis=1)
    return y.reshape(B, C), (best, x.shape)


def maxpool3d_backward(cache, dy):
    best, x_shape = cache
    dx = np.zeros((x_shape[0], 8, x_shape[4]), dtype=dy.dtype)
    np.put_along_axis(dx, best, dy.reshape(best.shape), axis=1)
    return dx.reshape(x_shape)


def linear_forward(x, w, b):
    """x: (B, F); w: (O, F)."""
    return x @ w.T + b, (x, w)


def linear_backward(cache, dy):
    x, w = cache
    return dy @ w, dy.T @ x, dy.sum(axis=0)


def l2_normalize_forward(x):
    s = np.sqrt((x * x).sum(axis=1, keepdims=True) + L2_EPS)
    return x / s, (x, s)


def l2_normalize_backward(cache, dy):
    x, s = cache
    dot = (dy * x).sum(axis=1, keepdims=True)
    return dy / s - x * dot / s ** 3


# ---------------------------------------------------------------------------
# masked GRU: the hidden state advances only while t < length

def _sigmoid_(a):
    """The logistic sigmoid of `a`, in place, as 0.5 * tanh(0.5 * a) + 0.5."""
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def gru_forward(x, lengths, w_ih, w_hh, b_ih, b_hh):
    """x: (B, L, X); gate layout [reset | update | candidate], each H wide.

    The summary is the mean of the states at the valid positions t < length,
    so every token influences the output regardless of where it sits. A
    row's later states never reach the summary, so PAD positions cannot.
    """
    B, L, _ = x.shape
    H = w_hh.shape[1]
    lengths = np.asarray(lengths)
    steps = int(min(L, lengths.max(initial=0)))
    gx_all = (x.reshape(B * L, -1) @ w_ih.T).reshape(B, L, 3 * H)
    gx_all += b_ih
    w_hh_t = np.ascontiguousarray(w_hh.T)
    actives = (np.arange(steps)[:, None] < lengths[None, :])[:, :, None]
    # the trace, time-major: states[t] is the state entering step t, and
    # rz, rgh and n hold step t's gates, the reset gate times the
    # candidate's hidden projection, and the candidate
    states = np.zeros((steps + 1, B, H), dtype=x.dtype)
    rz_all = np.empty((steps, B, 2 * H), dtype=x.dtype)
    rgh_all = np.empty((steps, B, H), dtype=x.dtype)
    n_all = np.empty((steps, B, H), dtype=x.dtype)
    gh = np.empty((B, 3 * H), dtype=x.dtype)
    for t in range(steps):
        h, h_next = states[t], states[t + 1]
        rz, rgh, n = rz_all[t], rgh_all[t], n_all[t]
        gx = gx_all[:, t]
        np.matmul(h, w_hh_t, out=gh)
        gh += b_hh
        np.add(gx[:, :2 * H], gh[:, :2 * H], out=rz)
        _sigmoid_(rz)
        np.multiply(rz[:, :H], gh[:, 2 * H:], out=rgh)
        np.add(rgh, gx[:, 2 * H:], out=n)
        np.tanh(n, out=n)
        # n + z * (h - n), which is (1 - z) * n + z * h
        np.subtract(h, n, out=h_next)
        h_next *= rz[:, H:]
        h_next += n
    # numpy adds the leading axis's slices in step order, starting from 0;
    # the summary's low bits depend on that order
    pooled = np.add.reduce(states[1:], axis=0, where=actives)
    denom = np.maximum(lengths, 1)[:, None].astype(x.dtype)
    cache = (x, states, rz_all, rgh_all, n_all, actives, w_ih, w_hh, denom)
    return pooled / denom, cache


def gru_backward(cache, dpool):
    x, states, rz_all, rgh_all, n_all, actives, w_ih, w_hh, denom = cache
    B, L, X = x.shape
    steps, H = len(n_all), w_hh.shape[1]
    r, z, n = rz_all[..., :H], rz_all[..., H:], n_all
    # Per step, with dh the cotangent of the state leaving it: the hidden
    # projection's cotangent is dh * factors (one factor per gate block), the
    # candidate pre-activation's is dh * dn_factor, and the state entering
    # the step gets dh * z plus the hidden projection's pull-back. The
    # factors do not depend on dh, so they are computed for all steps at
    # once. Past a row's length dh is 0: those steps add nothing.
    factors = np.empty((steps, B, 3, H), dtype=x.dtype)
    f_r, f_z, f_n = factors[:, :, 0], factors[:, :, 1], factors[:, :, 2]
    dn_factor = np.multiply(n, n)
    np.subtract(1.0, dn_factor, out=dn_factor)
    np.subtract(1.0, z, out=f_z)
    dn_factor *= f_z
    f_z *= z
    np.subtract(states[:steps], n, out=f_r)
    f_z *= f_r
    np.subtract(1.0, r, out=f_r)
    f_r *= rgh_all
    f_r *= dn_factor
    np.multiply(dn_factor, r, out=f_n)
    # dh[t] starts as step t's share of the mean and gathers the rest from step t + 1
    dh = actives * (dpool / denom)
    dgh_all = np.empty((steps, B, 3 * H), dtype=x.dtype)
    through, carried = np.empty((2, B, H), dtype=x.dtype)
    for t in range(steps - 1, -1, -1):
        dgh = dgh_all[t]
        np.multiply(dh[t, :, None], factors[t], out=dgh.reshape(B, 3, H))
        if t:
            np.matmul(dgh, w_hh, out=through)
            np.multiply(dh[t], z[t], out=carried)
            dh[t - 1] += through
            dh[t - 1] += carried
    # the weight gradients of all steps in one GEMM each; a masked step's dgh is 0
    dgh2 = dgh_all.reshape(steps * B, 3 * H)
    dw_hh = dgh2.T @ states[:steps].reshape(steps * B, H)
    db_hh = dgh2.sum(axis=0)
    # the input projection's cotangent is dgh with the candidate pre-activation's
    # cotangent in the candidate block
    np.multiply(dh, dn_factor, out=dgh_all[..., 2 * H:])
    dx = np.zeros_like(x)
    dx[:, :steps] = (dgh2 @ w_ih).reshape(steps, B, X).transpose(1, 0, 2)
    dw_ih = dgh2.T @ x[:, :steps].transpose(1, 0, 2).reshape(steps * B, X)
    db_ih = dgh2.sum(axis=0)
    return dx, dw_ih, dw_hh, db_ih, db_hh
