"""Differentiable layer primitives on numpy arrays.

Every layer is a (forward, backward) pair: forward returns the output plus a
cache, backward consumes the cache and the output cotangent and returns the
input cotangent plus parameter gradients. All functions work in whatever
float dtype the parameters carry (float32 for training, float64 for
finite-difference checks).

Two rules keep numpy's calls cheap. Every GEMM runs on 2-D operands:
batched inputs are reshaped to (rows, features) first and the result is
reshaped back, since `@` on a stack of matrices runs one small GEMM per
leading index. A weight used transposed inside a per-step loop is made
contiguous once per call, not read through the transposed view each step;
with a single row to multiply, the view is as fast and the copy is skipped.

Layers that only move values index by reshaping, not by looping over
window offsets: stride-3 windows of a kernel-3 convolution do not overlap,
and the pool's input is always a 2x2x2 map.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit as _sigmoid

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
    return d_table


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

def _im2col3d(x, stride, pad):
    """Columns of every 3x3x3 window of x: (B * out^3, 27 * Cin), window
    offsets outermost, then channels; also returns out."""
    B, D, cin = x.shape[0], x.shape[1], x.shape[4]
    out = (D + 2 * pad - 3) // stride + 1
    xp = np.zeros((B, D + 2 * pad, D + 2 * pad, D + 2 * pad, cin), dtype=x.dtype)
    xp[:, pad:pad + D, pad:pad + D, pad:pad + D] = x
    windows = sliding_window_view(xp, (3, 3, 3), axis=(1, 2, 3))[
        :, ::stride, ::stride, ::stride]  # (B, out, out, out, Cin, 3, 3, 3)
    return windows.transpose(0, 1, 2, 3, 5, 6, 7, 4).reshape(B * out ** 3, 27 * cin), out


def conv3d_forward(x, w, b, stride, pad):
    """x: (B, D, D, D, Cin); w: (Cout, Cin, 3, 3, 3)."""
    B, cin, cout = x.shape[0], x.shape[4], w.shape[0]
    cols, out = _im2col3d(x, stride, pad)
    # (27 * Cin, Cout) as the transpose of a copy that keeps Cout outermost,
    # which moves memory in far longer runs than copying to this layout
    wmat = w.transpose(0, 2, 3, 4, 1).reshape(cout, 27 * cin).T
    y = (cols @ wmat + b).reshape(B, out, out, out, cout)
    return y, (cols, wmat, x.shape, w.shape, stride, pad, out)


def conv3d_backward(cache, dy):
    cols, wmat, x_shape, w_shape, stride, pad, out = cache
    B, D = x_shape[0], x_shape[1]
    cin, cout = x_shape[4], w_shape[0]
    dy2 = dy.reshape(-1, cout)
    dw = (dy2.T @ cols).reshape(cout, 27, cin).transpose(0, 2, 1).reshape(w_shape)
    db = dy2.sum(axis=0)
    if stride == 1 and pad == 1:
        # dx is the same-padded correlation of dy with the kernel flipped in
        # space and transposed in channels: window offset i becomes 26 - i
        wflip = wmat.reshape(27, cin, cout)[::-1].transpose(0, 2, 1).reshape(27 * cout, cin)
        dcols, _ = _im2col3d(dy, 1, 1)
        return (dcols @ wflip).reshape(x_shape), dw, db
    if stride != 3:
        raise ValueError(f"conv3d_backward handles stride 1 at pad 1 and stride 3, "
                         f"not stride {stride} at pad {pad}")
    # kernel-3, stride-3 windows tile [0, 3 * out) of the padded grid without
    # overlap, so each window's column gradient lands in its own 3x3x3 block
    dcols = (dy2 @ wmat.T).reshape(B, out, out, out, 3, 3, 3, cin)
    dxp = np.zeros((B, D + 2 * pad, D + 2 * pad, D + 2 * pad, cin), dtype=dy.dtype)
    span = 3 * out
    dxp[:, :span, :span, :span] = dcols.transpose(0, 1, 4, 2, 5, 3, 6, 7).reshape(
        B, span, span, span, cin)
    return dxp[:, pad:pad + D, pad:pad + D, pad:pad + D], dw, db


# ---------------------------------------------------------------------------
# pointwise / pooling / dense layers

def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(mask, dy):
    return dy * mask


def maxpool3d_forward(x):
    """2x2x2 max pooling of the (B, 2, 2, 2, C) map that ends the shape
    encoder's convolutions: the max over its eight positions, as a
    (B, 1, 1, 1, C) map. Ties go to the first position in C order; the
    winners' indices are cache[0]."""
    B, C = x.shape[0], x.shape[4]
    flat = x.reshape(B, 8, C)
    best = flat.argmax(axis=1)[:, None]
    y = np.take_along_axis(flat, best, axis=1)
    return y.reshape(B, 1, 1, 1, C), (best, x.shape)


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

def gru_forward(x, lengths, w_ih, w_hh, b_ih, b_hh, want_trace=True):
    """x: (B, L, X); gate layout [reset | update | candidate], each H wide.

    The state advances only while t < length (PAD positions never change
    it); the summary is the mean of the states at the valid positions, so
    every token influences the output regardless of where it sits.
    """
    B, L, _ = x.shape
    H = w_hh.shape[1]
    steps = int(min(L, max((int(n) for n in lengths), default=0)))
    gx_all = (x.reshape(B * L, -1) @ w_ih.T + b_ih).reshape(B, L, 3 * H)
    # a single row multiplies the transposed view as fast as a copy
    w_hh_t = np.ascontiguousarray(w_hh.T) if B > 1 else w_hh.T
    h = np.zeros((B, H), dtype=x.dtype)
    lengths = np.asarray(lengths)
    denom = np.maximum(lengths, 1)[:, None].astype(x.dtype)
    actives = (np.arange(steps)[:, None] < lengths[None, :])[:, :, None]
    pooled = np.zeros((B, H), dtype=x.dtype)
    trace = []
    for t in range(steps):
        gh = h @ w_hh_t + b_hh
        gx = gx_all[:, t]
        rz = _sigmoid(gx[:, :2 * H] + gh[:, :2 * H])
        r, z = rz[:, :H], rz[:, H:]
        gh_n = gh[:, 2 * H:]
        n = np.tanh(gx[:, 2 * H:] + r * gh_n)
        h_new = (1.0 - z) * n + z * h
        active = actives[t]
        h_next = np.where(active, h_new, h)
        pooled += np.where(active, h_next, 0.0)
        if want_trace:
            trace.append((h, r, z, n, gh_n, active))
        h = h_next
    cache = (x, gx_all, trace, w_ih, w_hh, steps, denom)
    return pooled / denom, cache


def gru_backward(cache, dpool):
    x, gx_all, trace, w_ih, w_hh, steps, denom = cache
    B, L, _ = x.shape
    H = w_hh.shape[1]
    dgx_all = np.zeros_like(gx_all)
    dgh_all = np.empty((steps, B, 3 * H), dtype=x.dtype)
    dper_step = dpool / denom
    dh = np.zeros((B, H), dtype=x.dtype)
    for t in range(steps - 1, -1, -1):
        h_prev, r, z, n, gh_n, active = trace[t]
        dh = dh + np.where(active, dper_step, 0.0)
        dh_new = np.where(active, dh, 0.0)
        dz = dh_new * (h_prev - n)
        dn = dh_new * (1.0 - z)
        dn_pre = dn * (1.0 - n * n)
        dgh = dgh_all[t]
        dgh[:, :H] = dn_pre * gh_n * r * (1.0 - r)
        dgh[:, H:2 * H] = dz * z * (1.0 - z)
        dgh[:, 2 * H:] = dn_pre * r
        dgx_all[:, t, :2 * H] = dgh[:, :2 * H]
        dgx_all[:, t, 2 * H:] = dn_pre
        # dh - dn is dh * z on an active row and dh itself (dn = 0) on a masked one
        dh = dh - dn + dgh @ w_hh
    # the weight gradients of all steps in one GEMM; a masked step's dgh is 0
    dgh_all = dgh_all.reshape(steps * B, 3 * H)
    h_prev_all = np.array([step[0] for step in trace], dtype=x.dtype).reshape(steps * B, H)
    dw_hh = dgh_all.T @ h_prev_all
    db_hh = dgh_all.sum(axis=0)
    dgx2 = dgx_all.reshape(B * L, 3 * H)
    dx = (dgx2 @ w_ih).reshape(x.shape)
    dw_ih = dgx2.T @ x.reshape(B * L, -1)
    db_ih = dgx2.sum(axis=0)
    return dx, dw_ih, dw_hh, db_ih, db_hh
