"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every numeric primitive the backend models need lives here: matrix product,
1D/2D convolution (cross-correlation convention, no kernel flip), adaptive
average pooling, batch normalization, the usual activations, and the small
set of reshapes/reductions used to compose attention blocks.

Ops executed while a tape is active append a gradient rule to it;
``Tape.backward`` replays the rules in exact reverse recording order and
accumulates gradients into every tensor that requires them. Each rule is
popped off the tape before it runs, so the arrays it saved and the output
gradient it consumed are freed as soon as it returns, not at the end of the
pass. With no active tape, ops are plain forward computations (evaluation
mode).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "RunningStats",
    "recording",
    "active_tape",
    "add",
    "mul",
    "matmul",
    "linear",
    "conv1d",
    "conv2d",
    "adaptive_avg_pool1d",
    "adaptive_avg_pool2d",
    "batch_norm",
    "leaky_relu",
    "relu",
    "sigmoid",
    "log_softmax",
    "mean",
    "sum_all",
    "reshape",
    "transpose",
]


class DimensionError(ValueError):
    """Operand shapes cannot be combined the way an operation requires."""


class Tensor:
    """A dense float64 array plus an optional same-shape gradient.

    Tensors are treated as immutable during a recorded forward pass;
    parameter updates happen between passes (see ``training.Adam``).
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of gradient rules for one forward pass."""

    def __init__(self):
        self._rules: list = []

    def __len__(self) -> int:
        return len(self._rules)

    def record(self, rule) -> None:
        self._rules.append(rule)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and replay rules in reverse order.

        Each rule is popped before it runs: once it returns, nothing holds its
        closure, so its saved arrays and the gradient of its output are freed
        at once. The peak is then the live frontier of the backward pass, not
        every activation and gradient of the step. The tape ends empty, so a
        session can reuse it.
        """
        if loss.data.size != 1:
            raise DimensionError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        if not self._rules:
            raise ValueError("backward on an empty tape")
        loss.grad = np.ones_like(loss.data)
        while self._rules:
            self._rules.pop()()


# The active-tape stack is thread-local so independent sessions can run in
# parallel without sharing state.
_LOCAL = threading.local()


def _stack() -> list:
    if not hasattr(_LOCAL, "stack"):
        _LOCAL.stack = []
    return _LOCAL.stack


def active_tape() -> Tape | None:
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def recording(tape: Tape | None = None):
    """Route ops executed in the body onto ``tape`` (fresh one by default)."""
    tape = Tape() if tape is None else tape
    stack = _stack()
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


def _finish(out: Tensor, inputs: tuple[Tensor, ...], rule) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(rule)
    return out


def _accumulate(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    ``own=True`` lets the rule hand over a freshly built array (or a view of
    one) without a defensive copy; replay order guarantees nothing reads the
    donated buffer afterwards. Parameters always receive reduced or freshly
    computed arrays, so their grads never alias an activation buffer.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if own else np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``: the adjoint of numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def rule():
        g = out.grad
        if g is None:
            return
        ga = _unbroadcast(g, a.data.shape)
        _accumulate(a, ga, own=ga is not g)
        gb = _unbroadcast(g, b.data.shape)
        _accumulate(b, gb, own=gb is not g)

    return _finish(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    out = Tensor(a.data * b.data)

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape), own=True)
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape), own=True)

    return _finish(out, (a, b), rule)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, g.reshape(x.data.shape), own=True)

    return _finish(out, (x,), rule)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, g.transpose(inverse), own=True)

    return _finish(out, (x,), rule)


def mean(x: Tensor, axis: int) -> Tensor:
    """Mean over a single axis (no keepdims)."""
    axis = axis % x.data.ndim
    n = x.data.shape[axis]
    out = Tensor(x.data.mean(axis=axis))

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape) / n, own=True)

    return _finish(out, (x,), rule)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy(), own=True)

    return _finish(out, (x,), rule)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D MxK tensor with a 2-D KxN tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul needs MxK by KxN, got {a.data.shape} and {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)

    def rule():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accumulate(a, g @ b.data.T, own=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g, own=True)

    return _finish(out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# convolution

# One kernel serves conv1d and conv2d. It works on the channel-major view
# (Cin, B, *spatial) of the input, so each im2col copy and each col2im add
# moves whole rows, and it returns the GEMM result (Cout, B, *out) as a
# transposed view without copying it. Taps that reach into the padding are
# clipped to the input instead of padding it; the forward matrix is kept for
# the weight gradient so backward never rebuilds it, and once dW is taken the
# input gradient's columns are written into the same buffer.


def _tap(offset: int, size: int, out: int, stride: int, padding: int) -> tuple[slice, slice]:
    """Output positions of one kernel offset that read the unpadded input, and
    the input positions they read."""
    lo = max(0, -((offset - padding) // stride))
    hi = max(lo, min(out, (size - 1 + padding - offset) // stride + 1))
    start = lo * stride + offset - padding
    return slice(lo, hi), slice(start, start + (hi - lo) * stride, stride)


def _conv(
    x: Tensor, w: Tensor, bias: Tensor, stride: int, padding: int, outs: tuple[int, ...]
) -> Tensor:
    b, cin, *sizes = x.data.shape
    cout, k = w.data.shape[0], w.data.shape[-1]
    n = len(outs)
    cm = (1, 0) + tuple(range(2, n + 2))  # channel-major axis order; its own inverse
    per_axis = [
        [_tap(o, size, m, stride, padding) for o in range(k)] for size, m in zip(sizes, outs)
    ]
    taps = [tuple(zip(*combo)) for combo in itertools.product(*per_axis)]
    every = (slice(None),)
    cols = (np.zeros if padding else np.empty)((cin, len(taps), b, *outs))
    xc = x.data.transpose(cm)
    for t, (osl, isl) in enumerate(taps):
        cols[every + (t,) + every + osl] = xc[every * 2 + isl]
    cols = cols.reshape(cin * len(taps), -1)
    wmat = w.data.reshape(cout, -1)
    y = (wmat @ cols).reshape(cout, b, *outs)
    y += bias.data.reshape((cout,) + (1,) * (n + 1))
    out = Tensor(y.transpose(cm))

    def rule():
        g = out.grad
        if g is None:
            return
        gmat = np.ascontiguousarray(g.transpose(cm)).reshape(cout, -1)
        if bias.requires_grad:
            _accumulate(bias, gmat.sum(axis=1), own=True)
        if w.requires_grad:
            _accumulate(w, (gmat @ cols.T).reshape(w.data.shape), own=True)
        if x.requires_grad:
            # The rule runs once, so cols is dead after dW: reuse it for dcols.
            dcols = np.matmul(wmat.T, gmat, out=cols).reshape(cin, len(taps), b, *outs)
            dx = np.zeros_like(x.data)
            dxc = dx.transpose(cm)
            for t, (osl, isl) in enumerate(taps):
                dxc[every * 2 + isl] += dcols[every + (t,) + every + osl]
            _accumulate(x, dx, own=True)

    return _finish(out, (x, w, bias), rule)


def conv1d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 1D cross-correlation: x is BxCinxL, w is CoutxCinxk."""
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise DimensionError(
            f"conv1d needs BxCinxL input and CoutxCinxk weight, got {x.data.shape} and {w.data.shape}"
        )
    _, cin, length = x.data.shape
    cout, cin_w, k = w.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv1d channel mismatch: input {cin}, weight {cin_w}")
    if bias.data.shape != (cout,):
        raise DimensionError(f"conv1d bias must have shape ({cout},), got {bias.data.shape}")
    lp = length + 2 * padding
    lout = (lp - k) // stride + 1
    if k > lp or lout < 1:
        raise DimensionError(
            f"conv1d kernel {k} does not fit padded length {lp} (stride {stride})"
        )
    return _conv(x, w, bias, stride, padding, (lout,))


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2D cross-correlation: x is BxCinxHxW, w is CoutxCinxkxk."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(
            f"conv2d needs BxCinxHxW input and CoutxCinxkxk weight, got {x.data.shape} and {w.data.shape}"
        )
    _, cin, h, wdt = x.data.shape
    cout, cin_w, k, k2 = w.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    if k != k2:
        raise DimensionError(f"conv2d kernel must be square, got {k}x{k2}")
    if bias.data.shape != (cout,):
        raise DimensionError(f"conv2d bias must have shape ({cout},), got {bias.data.shape}")
    hp, wp = h + 2 * padding, wdt + 2 * padding
    hout = (hp - k) // stride + 1
    wout = (wp - k) // stride + 1
    if k > hp or k > wp or hout < 1 or wout < 1:
        raise DimensionError(
            f"conv2d kernel {k} does not fit padded size {hp}x{wp} (stride {stride})"
        )
    return _conv(x, w, bias, stride, padding, (hout, wout))


# ---------------------------------------------------------------------------
# pooling

# Bin i covers [floor(i*L/O), ceil((i+1)*L/O)); bins overlap when O does not
# divide L, and each input element inside a bin receives 1/binsize of the
# output gradient.


def _pool_bins(length: int, out: int) -> list[tuple[int, int]]:
    return [(i * length // out, -((-(i + 1) * length) // out)) for i in range(out)]


def _pool(x: Tensor, outs: tuple[int, ...]) -> Tensor:
    """Adaptive average pooling of the trailing ``len(outs)`` axes.

    Each axis whose size changes is pooled by one GEMM with a 0/1 membership
    matrix (bin sums) divided by the bin sizes; per-bin means would run one
    short reduction per row and bin. Axes that keep their size are skipped,
    so pooling to the input size is a copy.
    """
    steps = []
    data = x.data
    for axis, out_size in zip(range(-len(outs), 0), outs):
        length = data.shape[axis]
        if out_size == length:
            continue
        member = np.zeros((length, out_size), dtype=np.float64)
        for i, (s, e) in enumerate(_pool_bins(length, out_size)):
            member[s:e, i] = 1.0
        sizes = member.sum(axis=0)
        data = np.moveaxis((np.moveaxis(data, axis, -1) @ member) / sizes, -1, axis)
        steps.append((axis, member, sizes))
    out = Tensor(data if steps else data.copy())

    def rule():
        g = out.grad
        if g is None:
            return
        for axis, member, sizes in reversed(steps):
            g = np.moveaxis((np.moveaxis(g, axis, -1) / sizes) @ member.T, -1, axis)
        _accumulate(x, g, own=True)

    return _finish(out, (x,), rule)


def adaptive_avg_pool1d(x: Tensor, output_size: int) -> Tensor:
    if x.data.ndim != 3:
        raise DimensionError(f"adaptive_avg_pool1d needs BxCxL input, got {x.data.shape}")
    length = x.data.shape[2]
    if output_size < 1 or output_size > length:
        raise DimensionError(
            f"pool output size {output_size} invalid for input length {length}"
        )
    return _pool(x, (output_size,))


def adaptive_avg_pool2d(x: Tensor, output_size: tuple[int, int]) -> Tensor:
    if x.data.ndim != 4:
        raise DimensionError(f"adaptive_avg_pool2d needs BxCxHxW input, got {x.data.shape}")
    _, _, h, w = x.data.shape
    oh, ow = output_size
    if oh < 1 or ow < 1 or oh > h or ow > w:
        raise DimensionError(
            f"pool output size {output_size} invalid for input size {h}x{w}"
        )
    return _pool(x, (oh, ow))


# ---------------------------------------------------------------------------
# normalization


class RunningStats:
    """Per-channel running mean/variance buffers for batch_norm eval mode."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels, dtype=np.float64)
        self.var = np.ones(channels, dtype=np.float64)

    def copy(self) -> "RunningStats":
        fresh = RunningStats(len(self.mean))
        fresh.mean = self.mean.copy()
        fresh.var = self.var.copy()
        return fresh


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize per channel over batch and spatial axes.

    Training mode uses batch moments (biased variance) and updates the
    running buffers in place; eval mode normalizes with the buffers.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"batch_norm needs a BxCx... input, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"batch_norm gamma/beta must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}"
        )
    axes = (0,) + tuple(range(2, x.data.ndim))
    cshape = (1, c) + (1,) * (x.data.ndim - 2)
    if training:
        if x.data.shape[0] < 2:
            raise DimensionError(
                f"batch_norm training mode needs batch >= 2, got {x.data.shape[0]}"
            )
        mu = x.data.mean(axis=axes)
        xhat = x.data - mu.reshape(cshape)
        var = (xhat * xhat).sum(axis=axes) / (x.data.size // c)  # np.var's arithmetic
        stats.mean = (1.0 - momentum) * stats.mean + momentum * mu
        stats.var = (1.0 - momentum) * stats.var + momentum * var
    else:
        mu, var = stats.mean, stats.var
        xhat = x.data - mu.reshape(cshape)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv.reshape(cshape)
    out_data = gamma.data.reshape(cshape) * xhat
    out_data += beta.data.reshape(cshape)
    out = Tensor(out_data)

    def rule():
        g = out.grad
        if g is None:
            return
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes), own=True)
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=axes), own=True)
        if x.requires_grad:
            gg = g * gamma.data.reshape(cshape)
            if training:
                mean_gg = gg.mean(axis=axes).reshape(cshape)
                mean_ggx = (gg * xhat).mean(axis=axes).reshape(cshape)
                dx = inv.reshape(cshape) * (gg - mean_gg - xhat * mean_ggx)
            else:
                dx = gg * inv.reshape(cshape)
            _accumulate(x, dx, own=True)

    return _finish(out, (x, gamma, beta), rule)


# ---------------------------------------------------------------------------
# activations


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    # The factor (slope or 1.0) is looked up from the sign of x.data in the
    # forward and again in the backward, so no float factor array is kept.
    # np.multiply, not `*`: numpy may write `a * temporary` into the temporary,
    # which changes the product's memory layout and the bits of later GEMMs.
    factors = np.array([slope, 1.0])

    def factor() -> np.ndarray:
        return factors[(x.data >= 0).view(np.uint8)]

    out = Tensor(np.multiply(x.data, factor()))

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, np.multiply(g, factor()), own=True)

    return _finish(out, (x,), rule)


def relu(x: Tensor) -> Tensor:
    pos = x.data >= 0
    out = Tensor(np.where(pos, x.data, 0.0))

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, g * pos, own=True)

    return _finish(out, (x,), rule)


def sigmoid(x: Tensor) -> Tensor:
    """1/(1+exp(-v)) computed in the branch form that never overflows."""
    d = x.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out_data[~pos] = e / (1.0 + e)
    out = Tensor(out_data)

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, g * out_data * (1.0 - out_data), own=True)

    return _finish(out, (x,), rule)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    axis = axis % x.data.ndim
    m = x.data.max(axis=axis, keepdims=True)
    z = x.data - m
    out_data = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(out_data)

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True), own=True)

    return _finish(out, (x,), rule)
