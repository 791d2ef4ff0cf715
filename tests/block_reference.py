"""Whole-array byte references for ``tensor.conv_block``, forward and backward.

The conv is cut from ``np.pad`` windows and run as one GEMM in the kernel's
layout; batch norm and LeakyReLU are the whole-array formulas. Each step
keeps the operand order and memory layout that ``conv_block`` promises, so
its bytes must match. ``reference_block`` records the pair as a tape op,
which lets a whole model run on it.
"""

import itertools

import numpy as np

from sasvbackend import tensor as T
from sasvbackend.tensor import Tensor

SLOPE, MOMENTUM, EPS = 0.01, 0.1, 1e-5


def _cm(ndim):
    return (1, 0) + tuple(range(2, ndim))


def _windows(k, sizes):
    """Per tap, in row-major kernel order, the window of a zero-padded
    (C, B, *padded sizes) array that the tap reads."""
    for offs in itertools.product(range(k), repeat=len(sizes)):
        yield (slice(None),) * 2 + tuple(slice(o, o + n) for o, n in zip(offs, sizes))


def im2col_reference(x, k):
    """The same-size im2col matrix of ``x`` (B, Cin, *sizes) as
    ``conv_block`` lays it out: (Cin, taps, B, *sizes)."""
    xp = np.pad(x, [(0, 0)] * 2 + [(k // 2, k // 2)] * (x.ndim - 2))
    taps = [xp[win] for win in _windows(k, x.shape[2:])]
    return np.stack(taps).transpose((2, 0, 1) + tuple(range(3, x.ndim + 1)))


def col2im_reference(dcols, x_shape, k):
    """dx of ``dcols`` (Cin, taps, B, *sizes): each tap added into a zero
    padded buffer in tap order, then the padding cut off."""
    p, sizes = k // 2, x_shape[2:]
    dxp = np.zeros(x_shape[:2] + tuple(n + 2 * p for n in sizes))
    for t, win in enumerate(_windows(k, sizes)):
        dxp[win] += dcols[:, t].transpose(_cm(len(x_shape)))
    return dxp[(slice(None),) * 2 + tuple(slice(p, p + n) for n in sizes)]


def block_forward(x, w, bias, gamma, beta, mean, var, training):
    """The block's output, the new running mean and variance, and what
    ``block_backward`` needs."""
    b, cin, *sizes = x.shape
    cout, k = w.shape[0], w.shape[-1]
    cshape, axes = (1, -1) + (1,) * len(sizes), (0,) + tuple(range(2, x.ndim))
    cols = np.ascontiguousarray(im2col_reference(x, k)).reshape(-1, x.size // cin)
    y = (w.reshape(cout, -1) @ cols).reshape(cout, b, *sizes)
    y += bias.reshape((-1,) + (1,) * (len(sizes) + 1))
    y = y.transpose(_cm(x.ndim))  # channel-major, as the conv returns it
    if training:
        mu = y.mean(axis=axes)
        xhat = y - mu.reshape(cshape)
        batch_var = (xhat * xhat).sum(axis=axes) / (y.size // cout)
        mean = (1.0 - MOMENTUM) * mean + MOMENTUM * mu
        var, batch_var = (1.0 - MOMENTUM) * var + MOMENTUM * batch_var, batch_var
    else:
        batch_var = var
        xhat = y - mean.reshape(cshape)
    inv = 1.0 / np.sqrt(batch_var + EPS)
    xhat *= inv.reshape(cshape)
    bn = gamma.reshape(cshape) * xhat
    bn += beta.reshape(cshape)
    out = np.maximum(bn, np.multiply(bn, SLOPE))
    return out, mean, var, (x, w, gamma, cols, xhat, inv, bn, training)


def block_backward(saved, g):
    """dx, dw, dbias, dgamma and dbeta of the block from its output
    gradient ``g``."""
    x, w, gamma, cols, xhat, inv, bn, training = saved
    cout, k = w.shape[0], w.shape[-1]
    cshape, axes = (1, -1) + (1,) * (x.ndim - 2), (0,) + tuple(range(2, x.ndim))
    g = np.multiply(g, np.array([SLOPE, 1.0])[(bn >= 0).view(np.uint8)])
    dbeta, dgamma = g.sum(axis=axes), (g * xhat).sum(axis=axes)
    gg = g * gamma.reshape(cshape)
    if training:
        mean_gg = gg.mean(axis=axes).reshape(cshape)
        mean_ggx = (gg * xhat).mean(axis=axes).reshape(cshape)
        dy = inv.reshape(cshape) * (gg - mean_gg - xhat * mean_ggx)
    else:
        dy = gg * inv.reshape(cshape)
    gmat = np.ascontiguousarray(dy.transpose(_cm(x.ndim))).reshape(cout, -1)
    dcols = (w.reshape(cout, -1).T @ gmat).reshape((x.shape[1], -1, x.shape[0]) + x.shape[2:])
    dx = np.zeros_like(x)  # in x's layout
    dx[...] = col2im_reference(dcols, x.shape, k)
    return dx, (gmat @ cols.T).reshape(w.shape), gmat.sum(axis=1), dgamma, dbeta


def reference_block(x, w, bias, gamma, beta, stats, training):
    """``conv_block`` built from ``block_forward`` and ``block_backward``."""
    inputs = (x, w, bias, gamma, beta)
    out_data, stats.mean, stats.var, saved = block_forward(
        *(t.data for t in inputs), stats.mean, stats.var, training)
    out = Tensor(out_data)

    def rule(g):
        for t, grad in zip(inputs, block_backward(saved, g)):
            T._accumulate(T._slot(t), grad, own=True)

    return T._finish(out, inputs, rule)
