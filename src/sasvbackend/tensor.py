"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every numeric primitive the backend models need lives here: matrix product,
adaptive average pooling, the usual activations, the small set of
reshapes/reductions used to compose attention blocks, and one convolution.
That convolution is the CNNs' whole conv block, ``conv_block``: a same-size
1D or 2D cross-correlation (stride 1, odd kernel, padding k // 2, no kernel
flip), bias, batch normalization and LeakyReLU, as one op with one gradient
rule. Between its passes it keeps the im2col matrix, xhat and its output.

Ops executed while a tape is active append a gradient rule to it;
``Tape.backward`` replays the rules in exact reverse recording order and
accumulates gradients into every tensor that requires them. Each rule is
popped off the tape before it runs, so the arrays it saved and the output
gradient it consumed are freed as soon as it returns, not at the end of the
pass. With no active tape, ops are plain forward computations (evaluation
mode).

Layout rule: the bytes of a result depend on the memory layout of the arrays
it was reduced from, not only on their values (numpy sums in memory order,
and a GEMM blocks by layout). So every op returns its output in the layout
the whole-array formula would give it (a conv block's output is
channel-major, an elementwise op keeps its input's layout), and every
reduction sees an operand of that same layout. ``conv_block`` walks its
arrays in cache-sized slices of two or more channels, which numpy reduces in
the same order as the whole array.
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
    "adaptive_avg_pool1d",
    "adaptive_avg_pool2d",
    "leaky_relu",
    "conv_block",
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


def _records(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` records a gradient rule now."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def _finish(out: Tensor, inputs: tuple[Tensor, ...], rule) -> Tensor:
    if _records(inputs):
        out.requires_grad = True
        active_tape().record(rule)
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
    so pooling to the input size is a C-ordered copy. Returning the input
    instead saves nothing: every model flattens the pooled array next, and
    flattening a channel-major conv output copies it there.
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
# activations


def _leaky_relu_grad(g: np.ndarray, nonneg: np.ndarray, slope: float) -> np.ndarray:
    """``g`` times the LeakyReLU factor: 1.0 where the input was >= 0 (the
    boolean ``nonneg``), else ``slope``. The factor is looked up, so no float
    factor array is kept between forward and backward."""
    return np.multiply(g, np.array([slope, 1.0])[nonneg.view(np.uint8)])


# The LeakyReLU slope of leaky_relu and conv_block, and the conv block's
# batch-norm momentum and eps.
_SLOPE, _MOMENTUM, _EPS = 0.01, 0.1, 1e-5


def leaky_relu(x: Tensor, slope: float = _SLOPE) -> Tensor:
    """max(x, slope*x), which equals x*(1 if x >= 0 else slope) bit for bit,
    signed zeros, NaNs and subnormals included, only for 0 < slope <= 1 (at
    slope 0, inf*0 would turn +inf into NaN)."""
    if not 0.0 < slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1], got {slope}")
    # np.multiply, not `*`: numpy may write `a * temporary` into the temporary,
    # which changes the product's memory layout and the bits of later GEMMs.
    # The scaled copy is in x's layout, and the max is written over it.
    scaled = np.multiply(x.data, slope)
    out = Tensor(np.maximum(x.data, scaled, out=scaled))

    def rule():
        g = out.grad
        if g is None:
            return
        _accumulate(x, _leaky_relu_grad(g, x.data >= 0, slope), own=True)

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


# ---------------------------------------------------------------------------
# the conv block

# ``conv_block`` is the one convolution: conv -> bias -> batch norm ->
# LeakyReLU, at stride 1 with an odd square kernel and zero padding k // 2,
# so every block keeps its input's size. The conv works on the channel-major
# view (Cin, B, *sizes) of the input: im2col, one GEMM, and the (Cout, B,
# *sizes) product read back as a transposed view without copying it. The
# im2col matrix is kept for the weight gradient, so backward never rebuilds
# it, and once dW is taken the input gradient's columns are written into the
# same buffer.
#
# im2col and col2im share one loop (``_im2col``): it walks the input channels
# in cache-sized blocks (``_channel_blocks``) and finishes every tap of a
# block before the next. Since the conv keeps its size, each tap is one
# shifted run over a channel's flattened batch x spatial positions. The
# positions where that run wraps into the next row or batch item are exactly
# the tap's padding strips, which im2col zeroes after its copy and col2im
# zeroes in dcols before its add. Adding +0.0 changes no sum there, because
# dx starts at +0.0, and a sum that starts at +0.0 is never -0.0. An input
# whose channel-major view does not merge (the first block's C-ordered input,
# or a gated output in CNN2D) goes through a cache-sized flat copy of each
# channel block.


class RunningStats:
    """Per-channel running mean/variance buffers for a conv block's eval mode."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels, dtype=np.float64)
        self.var = np.ones(channels, dtype=np.float64)

    def copy(self) -> "RunningStats":
        fresh = RunningStats(len(self.mean))
        fresh.mean = self.mean.copy()
        fresh.var = self.var.copy()
        return fresh


def _channel_blocks(c: int, n: int) -> list[slice]:
    """Channel slices of about 32k elements each (``n`` per channel), which
    stay in cache: the batch norm and the im2col/col2im walk them.

    Every block holds at least two channels: numpy reduces a slice of two or
    more channels in the same order as the whole array, but a one-channel
    slice in a different one, so a trailing single channel joins the block
    before it.
    """
    step = max(2, 32768 // n)
    starts = list(range(0, c, step))
    if len(starts) > 1 and c - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [c])]


def _cm(ndim: int) -> tuple[int, ...]:
    """The axis order that swaps batch and channel axes; its own inverse."""
    return (1, 0) + tuple(range(2, ndim))


def _plan(sizes: list[int], k: int) -> list:
    """Per tap, in row-major kernel order: the padding strips of its output
    (per axis, the strips before and after the positions that read the
    input, within those positions of the axes before it), as indices into a
    (C, B, *sizes) array, and the flat shift of the input that its run
    reads."""
    pad = k // 2
    steps = [int(np.prod(sizes[d + 1:])) for d in range(len(sizes))]
    plan = []
    for offs in itertools.product(range(k), repeat=len(sizes)):
        reads = [slice(max(0, pad - o), max(0, pad - o, min(n, n + pad - o)))
                 for o, n in zip(offs, sizes)]
        strips = [
            (slice(None),) * 2 + tuple(reads[:d]) + (strip,)
            for d, (s, n) in enumerate(zip(reads, sizes))
            for strip in (slice(0, s.start), slice(s.stop, n))
            if strip.start < strip.stop
        ]
        plan.append((strips, sum((o - pad) * st for o, st in zip(offs, steps))))
    return plan


def _flat(xc: np.ndarray) -> np.ndarray | None:
    """The channel-major ``xc`` (C, B, *sizes) as a (C, B*prod(sizes)) view,
    or None where that needs a copy, which would take col2im's adds away
    from dx. A conv's own output merges; a C-ordered input of more than one
    channel does not."""
    try:
        return np.reshape(xc, (xc.shape[0], -1), copy=False)
    except ValueError:
        return None


def _im2col(xc: np.ndarray, cols: np.ndarray, plan: list, add: bool = False) -> None:
    """im2col: copy the taps of the channel-major input ``xc`` (Cin, B,
    *sizes) into ``cols`` (Cin, taps, B, *sizes). col2im (``add``): add the
    taps of ``cols`` into ``xc``, in tap order for every element.

    Each tap is one shifted run over a block of ``_flat(xc)``, or, where
    that is None, over a block-sized flat copy of the block (col2im: a zeroed
    block, added into ``xc`` once its taps are in)."""
    xf = _flat(xc)
    cf = cols.reshape(cols.shape[0], len(plan), -1)
    n = xc[0].size
    for blk in _channel_blocks(xc.shape[0], n):
        xb = xc[blk]
        if xf is not None:
            flat = xf[blk]
        else:
            flat = (np.zeros if add else np.empty)((xb.shape[0], n))
            if not add:
                flat.reshape(xb.shape)[...] = xb
        for t, (strips, shift) in enumerate(plan):
            lo = max(0, -shift)
            hi = max(lo, min(n, n - shift))
            col, win = cf[blk, t, lo:hi], flat[:, lo + shift:hi + shift]
            if not add:
                col[...] = win
            for strip in strips:
                cols[blk, t][strip] = 0.0
            if add:
                win += col
        if add and xf is None:
            xb += flat.reshape(xb.shape)


def conv_block(
    x: Tensor,
    w: Tensor,
    bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    training: bool,
) -> Tensor:
    """LeakyReLU(batch_norm(conv(x, w) + bias)) as one op.

    The conv is a same-size cross-correlation of a BxCinxL input with a
    CoutxCinxk weight, or of a BxCinxHxW input with a CoutxCinxkxk one: k
    odd, stride 1, zero padding k // 2. The batch norm is per channel over
    the batch and spatial axes, with eps 1e-5. Training mode uses the batch
    moments (biased variance) and moves ``stats`` toward them with momentum
    0.1; eval mode normalizes with ``stats``. The LeakyReLU slope is 0.01.

    The forward runs im2col and the GEMM, then one pass over channel blocks
    of the GEMM output: bias, batch norm (the product becomes xhat in place)
    and LeakyReLU per block, each block small enough to stay in cache and
    run with the whole-array formulas in the whole-array operand order, so
    the bytes do not depend on the blocking. The backward is one blocked
    pass too: the LeakyReLU factor, then the batch-norm gradient written
    over each xhat block, which leaves the GEMM-shaped output gradient for
    dbias, dW and col2im.
    """
    nd = x.data.ndim - 2
    if nd not in (1, 2) or w.data.ndim != x.data.ndim:
        raise DimensionError(
            f"conv_block needs a BxCinxL input with a CoutxCinxk weight or a BxCinxHxW input "
            f"with a CoutxCinxkxk weight, got {x.data.shape} and {w.data.shape}"
        )
    b, cin, *sizes = x.data.shape
    cout, cin_w, *ks = w.data.shape
    k = ks[0]
    if ks != [k] * nd or k % 2 == 0:
        raise DimensionError(f"conv_block kernel must be square and odd, got {w.data.shape[2:]}")
    if cin != cin_w:
        raise DimensionError(f"conv_block channel mismatch: input {cin}, weight {cin_w}")
    for name, t in (("bias", bias), ("gamma", gamma), ("beta", beta)):
        if t.data.shape != (cout,):
            raise DimensionError(f"conv_block {name} must have shape ({cout},), got {t.data.shape}")
    if x.data.size == 0:
        raise DimensionError(f"conv_block needs a non-empty input, got {x.data.shape}")
    if training and b < 2:
        raise DimensionError(f"conv_block training mode needs batch >= 2, got {b}")
    inputs = (x, w, bias, gamma, beta)
    plan = _plan(sizes, k)
    cols = np.empty((cin, len(plan), b, *sizes))
    _im2col(x.data.transpose(_cm(x.data.ndim)), cols, plan)
    cols = cols.reshape(cin * len(plan), -1)
    y = (w.data.reshape(cout, -1) @ cols).reshape(cout, b, *sizes)
    if not _records(inputs):
        cols = None  # no rule will read it: free it before the epilogue
    xhat = y.transpose(_cm(y.ndim))  # the conv output view, normalized in place
    axes, n = (0,) + tuple(range(2, y.ndim)), y[0].size
    blocks = _channel_blocks(cout, n)
    mu, var = (np.empty(cout), np.empty(cout)) if training else (stats.mean, stats.var)
    inv = np.empty(cout)

    def cs(v: np.ndarray) -> np.ndarray:  # per-channel values, shaped to broadcast
        return v.reshape((1, -1) + (1,) * nd)

    def affine(blk: slice, hb: np.ndarray, ob: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta of the block, written into ``ob``."""
        np.multiply(cs(gamma.data[blk]), hb, out=ob)
        ob += cs(beta.data[blk])
        return ob

    out_data = np.empty_like(xhat)
    for blk in blocks:
        hb, ob = xhat[:, blk], out_data[:, blk]
        hb += cs(bias.data[blk])
        if training:
            mu[blk] = hb.mean(axis=axes)
        hb -= cs(mu[blk])
        if training:  # np.var's arithmetic, with x*x written into ob
            var[blk] = np.multiply(hb, hb, out=ob).sum(axis=axes) / n
        inv[blk] = 1.0 / np.sqrt(var[blk] + _EPS)
        hb *= cs(inv[blk])
        affine(blk, hb, ob)
        np.maximum(ob, np.multiply(ob, _SLOPE), out=ob)
    if training:
        stats.mean = (1.0 - _MOMENTUM) * stats.mean + _MOMENTUM * mu
        stats.var = (1.0 - _MOMENTUM) * stats.var + _MOMENTUM * var
    out = Tensor(out_data)

    def rule():
        g = out.grad
        if g is None:
            return
        dgamma = np.empty(cout) if gamma.requires_grad else None
        dbeta = np.empty(cout) if beta.requires_grad else None
        conv_grads = x.requires_grad or w.requires_grad or bias.requires_grad

        def bn_dx(blk: slice, gb: np.ndarray, hb: np.ndarray) -> None:
            """The batch norm's dx of the block, written over its xhat."""
            gg = gb * cs(gamma.data[blk])  # in g's layout, as the reductions expect
            if training:
                mean_gg = cs(gg.mean(axis=axes))
                mean_ggx = cs((gg * hb).mean(axis=axes))
                gg -= mean_gg
                gg -= np.multiply(hb, mean_ggx)
            np.multiply(cs(inv[blk]), gg, out=hb)

        # gg lives in bn_dx, so it is freed before the next block and before
        # dx; this order of frees also keeps the heap's high-water mark down.
        for blk in blocks:
            hb = xhat[:, blk]
            # The factor needs the sign of the batch-norm output, recomputed
            # here bit for bit; the output's own sign differs where
            # slope * x underflows to -0.0.
            nonneg = affine(blk, hb, np.empty_like(hb)) >= 0
            gb = _leaky_relu_grad(g[:, blk], nonneg, _SLOPE)
            if dbeta is not None:
                dbeta[blk] = gb.sum(axis=axes)
            if dgamma is not None:
                dgamma[blk] = (gb * hb).sum(axis=axes)
            if conv_grads:
                bn_dx(blk, gb, hb)
        _accumulate(beta, dbeta, own=True)
        _accumulate(gamma, dgamma, own=True)
        gmat = y.reshape(cout, -1)  # xhat now holds the conv output's gradient
        if bias.requires_grad:
            _accumulate(bias, gmat.sum(axis=1), own=True)
        if w.requires_grad:
            _accumulate(w, (gmat @ cols.T).reshape(w.data.shape), own=True)
        if x.requires_grad:  # the rule runs once, so cols is dead after dW and takes dcols
            dcols = np.matmul(w.data.reshape(cout, -1).T, gmat, out=cols)
            dx = np.zeros_like(x.data)
            _im2col(dx.transpose(_cm(dx.ndim)), dcols.reshape(cin, len(plan), b, *sizes), plan,
                    add=True)
            _accumulate(x, dx, own=True)

    return _finish(out, inputs, rule)
