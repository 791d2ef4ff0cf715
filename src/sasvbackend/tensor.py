"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every numeric primitive the backend models need lives here: matrix product,
1D/2D convolution (cross-correlation convention, no kernel flip), adaptive
average pooling, batch normalization, the usual activations, and the small
set of reshapes/reductions used to compose attention blocks. A CNN's
conv -> batch norm -> LeakyReLU block is one op, ``conv_block``: it shares
the convolution's im2col/col2im and the batch-norm formulas with
``conv1d``/``conv2d`` and ``batch_norm``, records one gradient rule, and
keeps two activation-sized arrays (xhat and its output) where the three ops
keep four.

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
the whole-array formula would give it (a conv output is a channel-major
view, an elementwise op keeps its input's layout), and every reduction sees
an operand of that same layout. Ops that walk an array in cache-sized
pieces (``batch_norm``, ``conv_block``) cut it into slices of two or more
channels, which numpy reduces in the same order as the whole array.
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
# convolution

# One kernel serves conv1d, conv2d and conv_block. It works on the channel-major view
# (Cin, B, *spatial) of the input, and it returns the GEMM result (Cout, B,
# *out) as a transposed view without copying it. Taps that reach into the
# padding are clipped to the input instead of padding it; the forward matrix
# is kept for the weight gradient so backward never rebuilds it, and once dW
# is taken the input gradient's columns are written into the same buffer.
#
# im2col and col2im share one loop (``_im2col``): it walks the input channels
# in cache-sized blocks (``_channel_blocks``) and finishes every tap of a
# block before the next. A conv that keeps every size at stride 1 (every conv
# block of the presets) turns each tap into one shifted run over a channel's
# flattened batch x spatial positions, in place of runs of one output row.
# The positions where that run wraps into the next row or batch item are
# exactly the tap's padding strips, which im2col zeroes after its copy and
# col2im zeroes in dcols before its add. Adding +0.0 changes no sum there,
# because dx starts at +0.0, and a sum that starts at +0.0 is never -0.0. A
# C-ordered input (the first conv's, or a gated output in CNN2D) goes through
# a cache-sized flat copy of each block. Other convs keep one window copy per
# tap and block.


def _cm(ndim: int) -> tuple[int, ...]:
    """The axis order that swaps batch and channel axes; its own inverse."""
    return (1, 0) + tuple(range(2, ndim))


def _tap(offset: int, size: int, out: int, stride: int, padding: int) -> tuple[slice, slice]:
    """Output positions of one kernel offset that read the unpadded input, and
    the input positions they read."""
    lo = max(0, -((offset - padding) // stride))
    hi = max(lo, min(out, (size - 1 + padding - offset) // stride + 1))
    start = lo * stride + offset - padding
    return slice(lo, hi), slice(start, start + (hi - lo) * stride, stride)


def _plan(sizes: list[int], outs: tuple[int, ...], k: int, stride: int, padding: int) -> list:
    """Per tap: the output window and the input window it reads (indices into
    (C, B, *outs) and (C, B, *sizes) arrays), the padding strips of the
    output that the window leaves out (per axis, the strips before and after
    its slice, within the slices of the axes before it), and the flat offset
    of the input that its shifted run reads, or None when the conv changes a
    size or strides."""
    per_axis = [
        [_tap(o, size, m, stride, padding) for o in range(k)] for size, m in zip(sizes, outs)
    ]
    runs = stride == 1 and tuple(sizes) == tuple(outs)
    steps = [int(np.prod(sizes[d + 1:])) for d in range(len(sizes))]
    every = (slice(None),) * 2
    plan = []
    for combo in itertools.product(*per_axis):
        osl, isl = zip(*combo)
        strips = [
            every + osl[:d] + (strip,)
            for d, (s, m) in enumerate(zip(osl, outs))
            for strip in (slice(0, s.start), slice(s.stop, m))
            if strip.start < strip.stop
        ]
        shift = sum((i.start - o.start) * st for o, i, st in zip(osl, isl, steps)) if runs else None
        plan.append((every + osl, every + isl, strips, shift))
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
    *sizes) into ``cols`` (Cin, taps, B, *outs). col2im (``add``): add the
    taps of ``cols`` into ``xc``, in tap order for every element.

    Shifted runs read a block of ``_flat(xc)``, or, where that is None, a
    block-sized flat copy of the block (col2im: a zeroed block, added into
    ``xc`` once its taps are in)."""
    runs = plan[0][3] is not None
    xf = _flat(xc) if runs else None
    cf = cols.reshape(cols.shape[0], len(plan), -1)
    n = xc[0].size
    for blk in _channel_blocks(xc.shape[0], n):
        xb = xc[blk]
        if xf is not None:
            flat = xf[blk]
        elif runs:
            flat = (np.zeros if add else np.empty)((xb.shape[0], n))
            if not add:
                flat.reshape(xb.shape)[...] = xb
        for t, (osl, isl, strips, shift) in enumerate(plan):
            ct = cols[blk, t]
            if runs:
                lo = max(0, -shift)
                hi = max(lo, min(n, n - shift))
                col, win = cf[blk, t, lo:hi], flat[:, lo + shift:hi + shift]
            else:
                col, win = ct[osl], xb[isl]
            if add:
                if runs:
                    for strip in strips:
                        ct[strip] = 0.0
                win += col
            else:
                col[...] = win
                for strip in strips:
                    ct[strip] = 0.0
        if add and runs and xf is None:
            xb += flat.reshape(xb.shape)


def _conv_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                  outs: tuple[int, ...]):
    """im2col and GEMM: the C-ordered (Cout, B, *outs) product without the
    bias, the im2col matrix (kept for dW) and the tap plan (kept for
    col2im)."""
    b, cin, *sizes = x.shape
    cout, k = w.shape[0], w.shape[-1]
    plan = _plan(sizes, outs, k, stride, padding)
    cols = np.empty((cin, len(plan), b, *outs))
    _im2col(x.transpose(_cm(x.ndim)), cols, plan)
    cols = cols.reshape(cin * len(plan), -1)
    return (w.reshape(cout, -1) @ cols).reshape(cout, b, *outs), cols, plan


def _conv_backward(gmat: np.ndarray, x: Tensor, w: Tensor, bias: Tensor,
                   cols: np.ndarray, plan: list, outs: tuple[int, ...]) -> None:
    """Accumulate dbias, dW and dx from the (Cout, B*prod(outs)) output
    gradient. The rule runs once, so ``cols`` is dead after dW and takes
    dcols."""
    cout = w.data.shape[0]
    if bias.requires_grad:
        _accumulate(bias, gmat.sum(axis=1), own=True)
    if w.requires_grad:
        _accumulate(w, (gmat @ cols.T).reshape(w.data.shape), own=True)
    if x.requires_grad:
        b, cin, *_ = x.data.shape
        dcols = np.matmul(w.data.reshape(cout, -1).T, gmat, out=cols)
        dx = np.zeros_like(x.data)
        _im2col(dx.transpose(_cm(dx.ndim)), dcols.reshape(cin, len(plan), b, *outs), plan,
                add=True)
        _accumulate(x, dx, own=True)


def _conv(
    x: Tensor, w: Tensor, bias: Tensor, stride: int, padding: int, outs: tuple[int, ...]
) -> Tensor:
    y, cols, plan = _conv_forward(x.data, w.data, stride, padding, outs)
    y += bias.data.reshape((-1,) + (1,) * (len(outs) + 1))
    cm = _cm(x.data.ndim)
    out = Tensor(y.transpose(cm))

    def rule():
        g = out.grad
        if g is None:
            return
        gmat = np.ascontiguousarray(g.transpose(cm)).reshape(w.data.shape[0], -1)
        _conv_backward(gmat, x, w, bias, cols, plan, outs)

    return _finish(out, (x, w, bias), rule)


def _conv1d_outs(x: Tensor, w: Tensor, bias: Tensor, stride: int, padding: int) -> tuple[int]:
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
    return (lout,)


def _conv2d_outs(x: Tensor, w: Tensor, bias: Tensor, stride: int, padding: int) -> tuple[int, int]:
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
    return hout, wout


def conv1d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 1D cross-correlation: x is BxCinxL, w is CoutxCinxk."""
    return _conv(x, w, bias, stride, padding, _conv1d_outs(x, w, bias, stride, padding))


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2D cross-correlation: x is BxCinxHxW, w is CoutxCinxkxk."""
    return _conv(x, w, bias, stride, padding, _conv2d_outs(x, w, bias, stride, padding))


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


def _channel_blocks(c: int, n: int) -> list[slice]:
    """Channel slices of about 32k elements each (``n`` per channel), which
    stay in cache: batch norm and the conv's im2col/col2im walk them.

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


# Defaults of batch_norm and leaky_relu, and the values conv_block uses.
_MOMENTUM, _EPS, _SLOPE = 0.1, 1e-5, 0.01


def _check_batch_norm(shape: tuple[int, ...], gamma: Tensor, beta: Tensor, training: bool) -> None:
    if len(shape) < 2:
        raise DimensionError(f"batch_norm needs a BxCx... input, got {shape}")
    c = shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"batch_norm gamma/beta must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}"
        )
    if training and shape[0] < 2:
        raise DimensionError(f"batch_norm training mode needs batch >= 2, got {shape[0]}")


class _BatchNorm:
    """The batch-norm formulas for one channel block ``[:, blk]`` at a time,
    shared by ``batch_norm`` and ``conv_block``.

    Callers walk ``blocks`` (``_channel_blocks``), which stay in cache across
    the formulas' several passes. Each block runs the whole-array formulas in
    the whole-array operand order, so the bytes do not depend on the blocking.
    Training mode uses batch moments (biased variance); eval mode uses the
    running buffers.
    """

    def __init__(self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 stats: RunningStats, training: bool, eps: float):
        c = x.shape[1]
        self.axes = (0,) + tuple(range(2, x.ndim))
        self.n = x.size // c
        self.blocks = _channel_blocks(c, self.n)
        self.cshape = (1, -1) + (1,) * (x.ndim - 2)
        self.gamma, self.beta, self.training, self.eps = gamma, beta, training, eps
        self.mu, self.var = (np.empty(c), np.empty(c)) if training else (stats.mean, stats.var)
        self.inv = np.empty(c)

    def cs(self, v: np.ndarray) -> np.ndarray:  # per-channel values, shaped to broadcast
        return v.reshape(self.cshape)

    def normalize(self, blk: slice, xb: np.ndarray, hb: np.ndarray, ob: np.ndarray) -> None:
        """xhat of block ``xb`` into ``hb``, which may be ``xb`` itself; ``ob``
        is scratch of the block's size."""
        if self.training:
            self.mu[blk] = xb.mean(axis=self.axes)
        np.subtract(xb, self.cs(self.mu[blk]), out=hb)
        if self.training:  # np.var's arithmetic, with x*x written into ob
            self.var[blk] = np.multiply(hb, hb, out=ob).sum(axis=self.axes) / self.n
        self.inv[blk] = 1.0 / np.sqrt(self.var[blk] + self.eps)
        hb *= self.cs(self.inv[blk])

    def affine(self, blk: slice, hb: np.ndarray, ob: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta of the block, written into ``ob``."""
        np.multiply(self.cs(self.gamma[blk]), hb, out=ob)
        ob += self.cs(self.beta[blk])
        return ob

    def update(self, stats: RunningStats, momentum: float) -> None:
        """Move the running buffers toward the batch moments (training only)."""
        if self.training:
            stats.mean = (1.0 - momentum) * stats.mean + momentum * self.mu
            stats.var = (1.0 - momentum) * stats.var + momentum * self.var

    def backward(self, blk: slice, gb: np.ndarray, hb: np.ndarray, dxb: np.ndarray | None,
                 dgamma: np.ndarray | None, dbeta: np.ndarray | None) -> None:
        """The block's gradients from its output gradient ``gb``: dx into
        ``dxb`` (which may be ``hb``) and the parameter gradients into
        ``dgamma[blk]`` and ``dbeta[blk]``; a ``None`` target is skipped."""
        axes = self.axes
        if dbeta is not None:
            dbeta[blk] = gb.sum(axis=axes)
        if dgamma is not None:
            dgamma[blk] = (gb * hb).sum(axis=axes)
        if dxb is None:
            return
        gg = gb * self.cs(self.gamma[blk])  # in g's layout, as the reductions expect
        if self.training:
            mean_gg = self.cs(gg.mean(axis=axes))
            mean_ggx = self.cs((gg * hb).mean(axis=axes))
            gg -= mean_gg
            gg -= np.multiply(hb, mean_ggx)
        np.multiply(self.cs(self.inv[blk]), gg, out=dxb)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    training: bool,
    momentum: float = _MOMENTUM,
    eps: float = _EPS,
) -> Tensor:
    """Normalize per channel over batch and spatial axes.

    Training mode uses batch moments (biased variance) and updates the
    running buffers in place; eval mode normalizes with the buffers. Forward
    and backward walk the channels in cache-sized blocks (``_BatchNorm``).
    """
    _check_batch_norm(x.data.shape, gamma, beta, training)
    bn = _BatchNorm(x.data, gamma.data, beta.data, stats, training, eps)
    xhat = np.empty_like(x.data)
    out_data = np.empty_like(x.data)
    for blk in bn.blocks:
        hb, ob = xhat[:, blk], out_data[:, blk]
        bn.normalize(blk, x.data[:, blk], hb, ob)
        bn.affine(blk, hb, ob)
    bn.update(stats, momentum)
    out = Tensor(out_data)

    def rule():
        g = out.grad
        if g is None:
            return
        c = x.data.shape[1]
        dgamma = np.empty(c) if gamma.requires_grad else None
        dbeta = np.empty(c) if beta.requires_grad else None
        # empty_like keeps x's layout, so a conv's rule reads dx without a copy.
        dx = np.empty_like(x.data) if x.requires_grad else None
        for blk in bn.blocks:
            bn.backward(blk, g[:, blk], xhat[:, blk], None if dx is None else dx[:, blk],
                        dgamma, dbeta)
        _accumulate(beta, dbeta, own=True)
        _accumulate(gamma, dgamma, own=True)
        if dx is not None:
            _accumulate(x, dx, own=True)

    return _finish(out, (x, gamma, beta), rule)


# ---------------------------------------------------------------------------
# activations


def _leaky_relu_grad(g: np.ndarray, nonneg: np.ndarray, slope: float) -> np.ndarray:
    """``g`` times the LeakyReLU factor: 1.0 where the input was >= 0 (the
    boolean ``nonneg``), else ``slope``. The factor is looked up, so no float
    factor array is kept between forward and backward."""
    return np.multiply(g, np.array([slope, 1.0])[nonneg.view(np.uint8)])


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


# ---------------------------------------------------------------------------
# the conv block


def conv_block(
    x: Tensor,
    w: Tensor,
    bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    training: bool,
    padding: int,
) -> Tensor:
    """``leaky_relu(batch_norm(conv(x, w, bias, 1, padding), gamma, beta, stats,
    training))`` as one op, at their default slope, momentum and eps, with the
    bytes of the three: conv1d for a BxCinxL input, conv2d for BxCinxHxW.

    The forward runs ``_conv_forward``'s im2col and GEMM, then one pass over
    channel blocks of the GEMM output: bias, batch norm (the product becomes
    xhat in place) and LeakyReLU per block, each block small enough to stay
    in cache. The backward is one blocked pass too: the LeakyReLU factor,
    then the batch-norm gradient written over each xhat block, which leaves
    the GEMM-shaped output gradient for ``_conv_backward``. Between the
    passes the op keeps the im2col matrix and xhat, and no other
    activation-sized array but its output.
    """
    outs = (_conv1d_outs if x.data.ndim == 3 else _conv2d_outs)(x, w, bias, 1, padding)
    _check_batch_norm((x.data.shape[0], w.data.shape[0]), gamma, beta, training)
    inputs = (x, w, bias, gamma, beta)
    y, cols, plan = _conv_forward(x.data, w.data, 1, padding, outs)
    if not _records(inputs):
        cols = None  # no rule will read it: free it before the epilogue
    xhat = y.transpose(_cm(y.ndim))  # the conv output view, normalized in place
    bn = _BatchNorm(xhat, gamma.data, beta.data, stats, training, _EPS)
    out_data = np.empty_like(xhat)
    for blk in bn.blocks:
        hb, ob = xhat[:, blk], out_data[:, blk]
        hb += bn.cs(bias.data[blk])
        bn.normalize(blk, hb, hb, ob)
        bn.affine(blk, hb, ob)
        np.maximum(ob, np.multiply(ob, _SLOPE), out=ob)
    bn.update(stats, _MOMENTUM)
    out = Tensor(out_data)

    def rule():
        g = out.grad
        if g is None:
            return
        c = xhat.shape[1]
        dgamma = np.empty(c) if gamma.requires_grad else None
        dbeta = np.empty(c) if beta.requires_grad else None
        conv_grads = x.requires_grad or w.requires_grad or bias.requires_grad
        for blk in bn.blocks:
            hb = xhat[:, blk]
            # The factor needs the sign of the batch-norm output, recomputed
            # here bit for bit; the output's own sign differs where
            # slope * x underflows to -0.0.
            nonneg = bn.affine(blk, hb, np.empty_like(hb)) >= 0
            gb = _leaky_relu_grad(g[:, blk], nonneg, _SLOPE)
            bn.backward(blk, gb, hb, hb if conv_grads else None, dgamma, dbeta)
        _accumulate(beta, dbeta, own=True)
        _accumulate(gamma, dgamma, own=True)
        if conv_grads:  # xhat now holds the conv output's gradient
            _conv_backward(y.reshape(y.shape[0], -1), x, w, bias, cols, plan, outs)

    return _finish(out, inputs, rule)


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
