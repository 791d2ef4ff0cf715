"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every numeric primitive the backend models need lives here: matrix product,
adaptive average pooling, the usual activations, the small set of
reshapes/reductions used to compose attention blocks, and one convolution.
That convolution is the CNNs' whole conv block, ``conv_block``: a same-size
1D or 2D cross-correlation (stride 1, odd kernel, padding k // 2, no kernel
flip), bias, batch normalization and LeakyReLU, as one op with one gradient
rule. Between its passes it keeps its input and xhat, not its output or an
im2col matrix, and it never builds an im2col matrix of more than
``_COLS_BUDGET`` elements, split evenly between scoring lanes
(``_lanes``): its GEMMs run over chunks of one. Its passes between the
GEMMs run over channel blocks spread over the lanes (``_lanes.run``); the
GEMMs run on OpenBLAS's own threads.

Ops executed while a tape is active append a gradient rule to it;
``Tape.backward`` replays the rules in exact reverse recording order and
accumulates gradients into every tensor that requires them. A rule holds
the gradient slots of its output and inputs (``Tensor.slot``) and the
arrays it reads, never a whole input tensor, so an activation that no rule
reads (the pool's input, for one) is freed when the forward pass lets go of
it. A one-input op states only its output and its gradient (``_unary``),
with every array or shape that gradient reads bound beforehand; an op of
several inputs builds its own rule and records it with ``_finish``. Each
rule is popped off the tape before it runs, so the arrays it saved and the
output gradient it consumed are freed as soon as it returns, not at the end
of the pass. A conv block's rule frees its output gradient sooner, once its
backward epilogue has read it, unless the output tensor is still alive and
a caller may read its ``grad``. With no active tape, ops are plain forward
computations (evaluation mode).

Given an optimizer, ``Tape.backward`` also updates every parameter as soon
as its last gradient contribution is in: right after the first rule that
read it in the forward pass has run, since no rule left on the tape reads
it. A matmul weight with no other use hands its gradient to the optimizer
in row blocks, so the whole gradient is never held.

Layout rule: the bytes of a result depend on the memory layout of the arrays
it was reduced from, not only on their values (numpy sums in memory order,
and a GEMM blocks by layout). So every op returns its output in the layout
the whole-array formula would give it, and every reduction sees an operand
of that same layout. A conv block's output is channel-major. An elementwise
op's output takes the layout numpy gives it: its operands' common memory
order where they agree, C order where they do not. So a channel-major
(B, C, H, W) tensor times a (1, C, 1, 1) scale stays channel-major, but
times a (B, C, 1, 1) gate, as SE applies it, comes out C-ordered.
``conv_block`` walks its arrays in cache-sized slices of two or more
channels, which numpy reduces in the same order as the whole array.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from contextlib import contextmanager

import numpy as np

from . import _lanes

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "RunningStats",
    "init_weight",
    "recording",
    "active_tape",
    "add",
    "mul",
    "matmul",
    "linear",
    "adaptive_avg_pool",
    "leaky_relu",
    "conv_block",
    "relu",
    "logistic",
    "sigmoid",
    "log_softmax",
    "mean",
    "sum_all",
    "reshape",
    "transpose",
]


class DimensionError(ValueError):
    """Operand shapes cannot be combined the way an operation requires."""


class _Slot:
    """Where a tensor's gradient accumulates; rules hold this, not the tensor."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """A dense float64 array plus an optional same-shape gradient.

    Tensors are treated as immutable during a recorded forward pass; an
    optimizing backward updates each parameter once no rule left reads it
    (see ``Tape.backward``).
    """

    __slots__ = ("data", "slot", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = _Slot()
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.slot.grad = value

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
        self.slot.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of gradient rules for one forward pass."""

    # Elements per row block of a matmul weight's gradient handed to the
    # optimizer (8 MB).
    ROW_BLOCK = 1 << 20

    def __init__(self):
        self._rules: list = []
        self._first: dict[int, int] = {}  # id of an input's slot -> its first rule
        self._optimizer = None
        self._due: dict[int, Tensor] = {}  # slot id -> parameter due after this rule

    def __len__(self) -> int:
        return len(self._rules)

    def record(self, rule) -> None:
        self._rules.append(rule)

    def backward(self, loss: Tensor, optimizer=None) -> None:
        """Seed d(loss)/d(loss)=1 and replay rules in reverse order.

        Each rule is popped before it runs: once it returns, nothing holds its
        closure, so its saved arrays and the gradient of its output are freed
        at once. A conv block's rule drops its output's gradient halfway, before
        it allocates dW and dx, where no live tensor can read it (see
        ``conv_block``). The peak is then the live frontier of the backward
        pass, not every activation and gradient of the step. The tape ends
        empty, so a session can reuse it.

        With an ``optimizer`` (``named_params`` and ``update(p, grad,
        rows)``), each of its parameters that a rule read is updated with its
        gradient, which is then dropped, right after the first such rule
        recorded has run: every other contribution is in by then, and no rule
        left reads the parameter. A parameter that no rule read is updated
        before any rule runs, with the gradient it holds (usually None, which
        ``update`` rejects). If a rule or an update raises, the parameters
        updated so far keep their new values.
        """
        if loss.data.size != 1:
            raise DimensionError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        if not self._rules:
            raise ValueError("backward on an empty tape")
        due: dict[int, list[Tensor]] = {}
        for _, p in optimizer.named_params if optimizer is not None else ():
            due.setdefault(self._first.get(id(p.slot), len(self._rules)), []).append(p)
        self._first = {}
        loss.grad = np.ones_like(loss.data)
        self._optimizer = optimizer
        self._due = {id(p.slot): p for p in due.pop(len(self._rules), ())}  # read by no rule
        try:
            while True:
                for p in self._due.values():
                    optimizer.update(p, p.grad)
                    p.grad = None
                if not self._rules:
                    break
                self._due = {id(p.slot): p for p in due.pop(len(self._rules) - 1, ())}
                self._rules.pop()()
        finally:
            self._optimizer, self._due = None, {}


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
    """Record ``rule(g)``, which runs in backward with the gradient of
    ``out`` unless it has none. The tape holds out's slot, not out."""
    if _records(inputs):
        out.requires_grad = True
        slot, tape = out.slot, active_tape()
        tape.record(lambda: slot.grad is None or rule(slot.grad))
        for t in inputs:
            if t.requires_grad:
                tape._first.setdefault(id(t.slot), len(tape) - 1)
    return out


def _unary(x: Tensor, data: np.ndarray, grad) -> Tensor:
    """The output ``data`` of a one-input op on ``x``. Under a tape, its rule
    gives x the gradient ``grad(g)``, which x's slot takes without a copy, so
    it must be a fresh array, a view of g, or g itself. ``grad`` reads only
    what it was bound to, never x, so x's array is freed with x unless the
    gradient needs it."""
    sx = x.slot
    return _finish(Tensor(data), (x,), lambda g: _accumulate(sx, grad(g), own=True))


def _slot(t: Tensor) -> _Slot | None:
    """The slot a rule accumulates ``t``'s gradient into, or None if ``t``
    needs none."""
    return t.slot if t.requires_grad else None


def _accumulate(slot: _Slot | None, g: np.ndarray, own: bool = False) -> None:
    """Add ``g`` into ``slot.grad`` (nothing for a None slot).

    ``own=True`` lets the rule hand over a freshly built array (or a view of
    one) without a defensive copy; replay order guarantees nothing reads the
    donated buffer afterwards. Parameters always receive reduced or freshly
    computed arrays, so their grads never alias an activation buffer.
    """
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g if own else np.array(g)
    else:
        slot.grad += g


def _weight_grad(tape: Tape, slot: _Slot, a: np.ndarray, g: np.ndarray) -> None:
    """Give ``slot`` the gradient ``a.T @ g`` of a matmul's right operand.

    When the backward pass of ``tape``, which recorded the matmul, updates
    that parameter right after this rule and nothing else has given it a
    gradient, the product goes to the optimizer in row blocks of about
    ``Tape.ROW_BLOCK`` elements instead, one block at a time, so no whole
    gradient of the weight is held. A block of two or more rows has the
    bytes of the same rows of the whole product.
    """
    p = tape._due.pop(id(slot), None) if slot.grad is None else None
    if p is None:
        _accumulate(slot, a.T @ g, own=True)
        return
    for rows in _channel_blocks(a.shape[1], g.shape[1], tape.ROW_BLOCK):
        tape._optimizer.update(p, a.T[rows] @ g, rows)


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
    sa, sb, a_shape, b_shape = _slot(a), _slot(b), a.data.shape, b.data.shape

    def rule(g):
        ga = _unbroadcast(g, a_shape)
        _accumulate(sa, ga, own=ga is not g)
        gb = _unbroadcast(g, b_shape)
        _accumulate(sb, gb, own=gb is not g)

    return _finish(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    out = Tensor(a.data * b.data)
    sa, sb, a_shape, b_shape = _slot(a), _slot(b), a.data.shape, b.data.shape
    # Each factor is kept only for the other's gradient.
    ad, bd = (a.data if sb else None), (b.data if sa else None)

    def rule(g):
        if sa:
            _accumulate(sa, _unbroadcast(g * bd, a_shape), own=True)
        if sb:
            _accumulate(sb, _unbroadcast(g * ad, b_shape), own=True)

    return _finish(out, (a, b), rule)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x_shape = x.data.shape
    return _unary(x, x.data.reshape(shape), lambda g: g.reshape(x_shape))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return _unary(x, x.data.transpose(axes), lambda g: g.transpose(inverse))


def mean(x: Tensor, axis: int) -> Tensor:
    """Mean over a single axis (no keepdims)."""
    axis, x_shape = axis % x.data.ndim, x.data.shape
    n = x_shape[axis]
    return _unary(x, x.data.mean(axis=axis),
                  lambda g: np.broadcast_to(np.expand_dims(g, axis), x_shape) / n)


def sum_all(x: Tensor) -> Tensor:
    x_shape = x.data.shape
    return _unary(x, x.data.sum(), lambda g: np.broadcast_to(g, x_shape).copy())


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D MxK tensor with a 2-D KxN tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul needs MxK by KxN, got {a.data.shape} and {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)
    sa, sb, tape = _slot(a), _slot(b), active_tape()
    # Each operand is kept only for the other's gradient.
    ad, bd = (a.data if sb else None), (b.data if sa else None)

    def rule(g):
        if sa:  # before the weight's update, which may run inside _weight_grad
            _accumulate(sa, g @ bd.T, own=True)
        if sb:
            _weight_grad(tape, sb, ad, g)

    return _finish(out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# pooling

def adaptive_avg_pool(x: Tensor, output_size: tuple[int, ...]) -> Tensor:
    """Adaptive average pooling of a BxCx(spatial) input to ``output_size``,
    one size per spatial axis.

    Bin i of an axis of size L pooled to O covers [floor(i*L/O),
    ceil((i+1)*L/O)), so bins overlap when O does not divide L. Each axis
    whose size changes is pooled by one GEMM with a 0/1 membership matrix
    (bin sums) divided by the bin sizes; per-bin means would run one
    short reduction per row and bin. Axes that keep their size are skipped,
    so pooling to the input size is a C-ordered copy. Returning the input
    instead saves nothing: every model flattens the pooled array next, and
    flattening a channel-major conv output copies it there.
    """
    outs, spatial = tuple(output_size), x.data.shape[2:]
    if x.data.ndim < 3 or len(outs) != len(spatial):
        raise DimensionError(
            f"adaptive_avg_pool needs a BxC input with one output size per spatial axis, "
            f"got {x.data.shape} and {outs}"
        )
    if not all(1 <= o <= n for o, n in zip(outs, spatial)):
        raise DimensionError(
            f"pool output size {outs} invalid for input size {'x'.join(map(str, spatial))}"
        )
    steps = []
    data = x.data
    for axis, out_size in zip(range(-len(outs), 0), outs):
        length = data.shape[axis]
        if out_size == length:
            continue
        member = np.zeros((length, out_size), dtype=np.float64)
        for i in range(out_size):
            member[i * length // out_size:-(-(i + 1) * length // out_size), i] = 1.0
        sizes = member.sum(axis=0)
        data = np.moveaxis((np.moveaxis(data, axis, -1) @ member) / sizes, -1, axis)
        steps.append((axis, member, sizes))

    def grad(g):
        for axis, member, sizes in reversed(steps):
            g = np.moveaxis((np.moveaxis(g, axis, -1) / sizes) @ member.T, -1, axis)
        return g

    return _unary(x, data if steps else data.copy(), grad)


# ---------------------------------------------------------------------------
# activations


# The LeakyReLU slope of leaky_relu and conv_block, and the conv block's
# batch-norm momentum and eps.
_SLOPE, _MOMENTUM, _EPS = 0.01, 0.1, 1e-5


def _leaky_relu_grad(g: np.ndarray, nonneg: np.ndarray) -> np.ndarray:
    """``g`` times the LeakyReLU factor: 1.0 where the input was >= 0 (the
    boolean ``nonneg``), else ``_SLOPE``. No float factor array is kept
    between the passes: it is made here without a branch, in g's layout, as
    ``nonneg * (1 - _SLOPE) + _SLOPE`` (exactly _SLOPE or 1.0), and g is
    multiplied into it."""
    factor = np.multiply(nonneg, 1.0 - _SLOPE, out=np.empty_like(g))
    factor += _SLOPE
    return np.multiply(g, factor, out=factor)


def leaky_relu(x: Tensor) -> Tensor:
    """max(x, 0.01*x), which equals x*(1 if x >= 0 else 0.01) bit for bit,
    signed zeros, NaNs and subnormals included."""
    # np.multiply, not `*`: numpy may write `a * temporary` into the temporary,
    # which changes the product's memory layout and the bits of later GEMMs.
    # The scaled copy is in x's layout, and the max is written over it.
    xd = x.data  # the rule reads its sign
    scaled = np.multiply(xd, _SLOPE)
    return _unary(x, np.maximum(xd, scaled, out=scaled),
                  lambda g: _leaky_relu_grad(g, xd >= 0))


def relu(x: Tensor) -> Tensor:
    pos = x.data >= 0
    return _unary(x, np.where(pos, x.data, 0.0), lambda g: g * pos)


def logistic(d: np.ndarray) -> np.ndarray:
    """1/(1+exp(-v)) computed in the branch form that never overflows."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = logistic(x.data)
    return _unary(x, out, lambda g: g * out * (1.0 - out))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    axis = axis % x.data.ndim
    z = x.data - x.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    return _unary(x, out, lambda g: g - np.exp(out) * g.sum(axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# the conv block

# ``conv_block`` is the one convolution: conv -> bias -> batch norm ->
# LeakyReLU, at stride 1 with an odd square kernel and zero padding k // 2,
# so every block keeps its input's size. The conv works on the channel-major
# view (Cin, B, *sizes) of the input: im2col and a GEMM per chunk of batch
# items (``_item_chunks``), each product written into its columns of the
# (Cout, B, *sizes) output, which is read back as a transposed view without
# copying it. One buffer of at most ``_cols_budget()`` elements serves every
# chunk. The rule keeps the block's input instead of the im2col matrix: for
# dW the backward rebuilds the im2col rows of a power-of-two run of input
# channels at a time (``_pow2_chunks``) into such a buffer, and for dx it
# writes each item chunk's dcols there before col2im adds them in. At D=16
# and batch 90 the four CNN2D block inputs take 40 MiB, their im2col
# matrices 366 MiB.
#
# The output gradient g is read only by the backward epilogue, which leaves
# its GEMM-shaped result in the conv output's buffer. So the rule drops g
# right after that pass, before it allocates the dW/dx buffer and dx: one
# output-sized array less at the rule's peak, which in a CNN training step
# is the step's peak or near it (CNN2D_SE's last block at D=16 and batch 90:
# 47 MB). The output's slot lets go of g too, but only once the output
# tensor is dead: a caller that still holds the output may read its
# ``grad`` after the backward. No rule left on the tape reads that slot:
# every op that read the output was recorded later, so its rule has run.
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


def init_weight(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """A trainable weight drawn uniform in +-sqrt(6 / fan_in), or left
    uninitialised (``np.empty``) for a checkpoint load when ``rng`` is None."""
    if rng is None:
        return Tensor(np.empty(shape), requires_grad=True)
    bound = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class RunningStats:
    """Per-channel running mean/variance buffers for a conv block's eval mode."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels, dtype=np.float64)
        self.var = np.ones(channels, dtype=np.float64)


def _channel_blocks(c: int, n: int, budget: int) -> list[slice]:
    """Channel slices of about ``budget`` elements each (``n`` per channel).
    ``_pass_blocks`` sizes them for the conv block's passes; ``_weight_grad``
    cuts a weight's rows the same way.

    Every block holds at least two channels: numpy reduces a slice of two or
    more channels in the same order as the whole array, but a one-channel
    slice in a different one, so a trailing single channel joins the block
    before it.
    """
    step = max(2, budget // n)
    starts = list(range(0, c, step))
    if len(starts) > 1 and c - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [c])]


def _pass_blocks(c: int, n: int) -> list[slice]:
    """The channel blocks of a conv-block pass over ``c`` channels of ``n``
    elements, which ``_lanes.run`` spreads over the lanes: of
    ``_lanes.BLOCK`` elements, so they stay in cache on one lane and
    outweigh the GIL's switches on several."""
    return _channel_blocks(c, n, _lanes.BLOCK)


# Elements of the largest im2col matrix a conv block builds at once (64 MB).
# At D=16 and batch 90, 32 MB made a CNN2D_SE training step about 5% slower
# (more GEMM calls, each packing its other operand again) with the same peak
# RSS; 128 MB raised the peak RSS by 100 MB.
_COLS_BUDGET = 1 << 23


def _cols_budget() -> int:
    """This thread's share of ``_COLS_BUDGET``: the budget over the lanes
    that run side by side (``_lanes.SHARE``), so their peak stays that of
    one."""
    return _COLS_BUDGET // _lanes.SHARE.get()


def _pow2_chunks(c: int, n: int) -> list[slice]:
    """Input-channel slices (``n`` im2col elements per channel) for the conv
    block's backward: one slice if all ``c`` fit ``_cols_budget()``, else runs
    of the largest power of two, at least 2, that fits. A trailing single
    channel joins the run before it.

    Runs of a power of two channels kept dW's bytes in every shape tried,
    with dW computed either way round. Written as ``gmat @ cols.T``, runs of
    10 or 20 channels changed them at cin 32 and 64; as ``cols @ gmat.T``,
    the form used here, runs of 6 to 20 kept them too.
    """
    budget = _cols_budget()
    if c * n <= budget:
        return [slice(0, c)]
    step = 1 << max(1, (budget // n).bit_length() - 1)
    return _channel_blocks(c, 1, step)


def _item_chunks(b: int, n: int, pos: int) -> list[slice]:
    """Batch-item slices for the conv block's forward and input gradient,
    each a column split of their GEMMs: one slice if all ``b`` items (``n``
    im2col elements and ``pos`` columns each) fit ``_cols_budget()``, else
    slices of about equal size that fit it, each but the last spanning a
    multiple of 16 columns (more than the budget only where 16 columns of
    items do not fit).

    With OpenBLAS, column splits kept the bytes in every shape tried where
    each piece starts at a multiple of 16 columns and none is small. They
    changed them for pieces of under about a million multiply-adds, for
    pieces starting off a multiple of 16 columns, and for a narrow last
    piece of a product whose width is no multiple of 16. Hence slices of
    about equal size, not full ones and a remainder.
    """
    budget = _cols_budget()
    if b * n <= budget:
        return [slice(0, b)]
    unit = 16 // math.gcd(pos, 16)  # items per 16 columns
    count = -(-b // max(unit, budget // n // unit * unit))
    units, rest = divmod(b, unit)
    sizes = [(units // count + (i < units % count)) * unit for i in range(count)]
    sizes[-1] += rest
    ends = list(itertools.accumulate(sizes))
    return [slice(e - size, e) for e, size in zip(ends, sizes)]


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
    from dx. A conv's own output merges, as does a slice of its batch items;
    a C-ordered input of more than one channel does not. Two preset blocks
    read such an input, so ``_im2col`` copies it block by block in their
    forward, dW runs and col2im: every CNN's first block (the fused batch)
    and conv4 of CNN2D_SE and CNN2D_VSE (the SE or VSE gate's product)."""
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
    block, added into ``xc`` once its taps are in). The channel blocks
    (``_pass_blocks``) run on the lanes; no two write the same elements."""
    xf = _flat(xc)
    cf = cols.reshape(cols.shape[0], len(plan), -1)
    n = xc[0].size

    def copy(blk: slice) -> None:
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

    _lanes.run(copy, _pass_blocks(xc.shape[0], n))


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

    The forward runs im2col and the GEMM over chunks of batch items, then
    one pass over channel blocks of the GEMM output: bias, batch norm (the
    product becomes xhat in place) and LeakyReLU per block, each block small
    enough to stay in cache and run with the whole-array formulas in the
    whole-array operand order, so the bytes do not depend on the blocking.
    The backward is one blocked pass too: the LeakyReLU factor, then the
    batch-norm gradient written over each xhat block, which leaves the
    GEMM-shaped output gradient for dbias, dW and col2im. The rule keeps x
    when w or x needs a gradient: dW rebuilds its im2col rows from it, and
    dx takes its layout.

    Each blocked pass (im2col, col2im and the two epilogues) is one
    ``_lanes.run`` over its channel blocks (``_pass_blocks``), so outside a
    scoring lane the blocks spread over the CPUs, with OpenBLAS's workers
    parked (``_lanes``), and every GEMM runs between those runs, on
    OpenBLAS's threads. A block writes only its own channels, and the bytes
    depend on neither the block size nor the lane that takes a block.
    Inside a scoring lane the passes run inline, in cache-sized blocks.
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
    taps, pos = len(plan), int(np.prod(sizes))  # pos: positions per batch item
    xc = x.data.transpose(_cm(x.data.ndim))
    gmat = np.empty((cout, b * pos))  # the GEMM output; backward writes its gradient here
    items = _item_chunks(b, cin * taps * pos, pos)
    most = max(blk.stop - blk.start for blk in items)  # items in the largest chunk
    buf = np.empty(cin * taps * most * pos)
    for blk in items:
        cols = buf[: cin * taps * (blk.stop - blk.start) * pos].reshape(cin, taps, -1, *sizes)
        _im2col(xc[:, blk], cols, plan)
        np.matmul(w.data.reshape(cout, -1), cols.reshape(cin * taps, -1),
                  out=gmat[:, blk.start * pos:blk.stop * pos])
    del buf, cols  # freed before the epilogue
    y = gmat.reshape(cout, b, *sizes)
    xhat = y.transpose(_cm(y.ndim))  # the conv output view, normalized in place
    axes, n = (0,) + tuple(range(2, y.ndim)), y[0].size
    blocks = _pass_blocks(cout, n)
    mu, var = (np.empty(cout), np.empty(cout)) if training else (stats.mean, stats.var)
    inv = np.empty(cout)

    def cs(v: np.ndarray) -> np.ndarray:  # per-channel values, shaped to broadcast
        return v.reshape((1, -1) + (1,) * nd)

    def affine(blk: slice, hb: np.ndarray, ob: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta of the block, written into ``ob``."""
        np.multiply(cs(gamma.data[blk]), hb, out=ob)
        ob += cs(beta.data[blk])
        return ob

    # An unrecorded eval block writes its output over xhat, which no rule
    # reads then, so it holds one activation; training writes x*x into the
    # second buffer.
    out_data = np.empty_like(xhat) if training or _records(inputs) else xhat

    def epilogue(blk: slice) -> None:
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

    _lanes.run(epilogue, blocks)
    if training:
        stats.mean = (1.0 - _MOMENTUM) * stats.mean + _MOMENTUM * mu
        stats.var = (1.0 - _MOMENTUM) * stats.var + _MOMENTUM * var
    out = Tensor(out_data)
    sx, sw, sbias, sgamma, sbeta = (_slot(t) for t in inputs)
    wd, xd = w.data, (x.data if sx or sw else None)
    so, out_ref = out.slot, weakref.ref(out)

    def rule(g):
        dgamma = np.empty(cout) if sgamma else None
        dbeta = np.empty(cout) if sbeta else None
        conv_grads = bool(sx or sw or sbias)

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
        def epilogue_grad(blk: slice) -> None:
            hb = xhat[:, blk]
            # The factor needs the sign of the batch-norm output, recomputed
            # here bit for bit; the output's own sign differs where
            # slope * x underflows to -0.0.
            nonneg = affine(blk, hb, np.empty_like(hb)) >= 0
            gb = _leaky_relu_grad(g[:, blk], nonneg)
            if dbeta is not None:
                dbeta[blk] = gb.sum(axis=axes)
            if dgamma is not None:
                dgamma[blk] = (gb * hb).sum(axis=axes)
            if conv_grads:
                bn_dx(blk, gb, hb)

        _lanes.run(epilogue_grad, blocks)
        # g is read no more: drop it before dW and dx allocate. Its slot lets
        # go of it too unless a caller still holds the output to read it.
        del g
        if out_ref() is None:
            so.grad = None
        _accumulate(sbeta, dbeta, own=True)
        _accumulate(sgamma, dgamma, own=True)
        # gmat now holds the conv output's gradient
        if sbias:
            _accumulate(sbias, gmat.sum(axis=1), own=True)
        runs = _pow2_chunks(cin, taps * b * pos) if sw else []
        # one buffer for both loops: the widest channel run or item chunk
        buf = np.empty(max([(r.stop - r.start) * b for r in runs]
                           + [cin * most if sx else 0]) * taps * pos)
        if sw:  # dW's rows, transposed, from im2col rows rebuilt per channel run
            dwt = np.empty((cin * taps, cout))
            for blk in runs:
                cols = buf[: (blk.stop - blk.start) * taps * b * pos].reshape(-1, taps, b, *sizes)
                _im2col(xd.transpose(_cm(xd.ndim))[blk], cols, plan)
                np.matmul(cols.reshape(-1, b * pos), gmat.T,
                          out=dwt[blk.start * taps:blk.stop * taps])
            _accumulate(sw, np.ascontiguousarray(dwt.T).reshape(wd.shape), own=True)
        if sx:  # dcols per chunk of batch items, added into dx by col2im
            dx = np.zeros_like(xd)  # in x's layout
            for blk in items:
                cols = buf[: cin * taps * (blk.stop - blk.start) * pos]
                cols = cols.reshape(cin, taps, -1, *sizes)
                np.matmul(wd.reshape(cout, -1).T, gmat[:, blk.start * pos:blk.stop * pos],
                          out=cols.reshape(cin * taps, -1))
                _im2col(dx.transpose(_cm(dx.ndim))[:, blk], cols, plan, add=True)
            _accumulate(sx, dx, own=True)

    return _finish(out, inputs, rule)
