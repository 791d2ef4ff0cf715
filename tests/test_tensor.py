import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from sasvbackend import oracles
from sasvbackend import tensor as T
from sasvbackend.oracles import finite_difference_check, random_projection_loss
from sasvbackend.tensor import DimensionError, RunningStats, Tensor

from block_reference import col2im_reference, im2col_reference, reference_block


def rt(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def in_layout(a, order):
    """A copy of ``a`` stored C-ordered, channel-major (how a conv returns its
    output) or Fortran-ordered."""
    if order == "C":
        return np.ascontiguousarray(a)
    if order == "F":
        return np.asfortranarray(a)
    cm = (1, 0) + tuple(range(2, a.ndim))
    return np.ascontiguousarray(a.transpose(cm)).transpose(cm)


def layout(a):
    """The strides of the axes longer than one; a length-1 axis's stride is
    arbitrary."""
    return tuple(st for st, n in zip(a.strides, a.shape) if n > 1)


def backward_from(tape, out, g):
    """Replay ``tape`` with ``g`` as the gradient of ``out``."""
    tape.record(lambda: setattr(out, "grad", g))
    tape.backward(Tensor(0.0))


def held_arrays(tape):
    """Every array in the closures of the rules on ``tape`` and of the
    functions those hold, as the arrays that own the memory."""
    seen, out, todo = set(), [], list(tape._rules)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            out.append(obj)
        elif isinstance(obj, T._Recipe):
            todo.append(obj.write)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return out


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_computed(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop(self, rng):
        a = rng.uniform(-1, 1, (5, 7))
        b = rng.uniform(-1, 1, (7, 3))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, oracles.matmul_loops(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def nan_filled(alloc):
    """``alloc`` (np.empty or np.empty_like) with every float result filled
    with NaN, so any element an op leaves unwritten poisons its output."""
    def make(*args, **kwargs):
        out = alloc(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out
    return make


def fill_empty_with_nan(monkeypatch):
    monkeypatch.setattr(np, "empty", nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", nan_filled(np.empty_like))
    assert np.isnan(np.empty(3)).all()


def block_arrays(rng, shape, cout, k):
    """Input, weight, bias, gamma, beta and running stats of one block case."""
    cin = shape[1]
    return {
        "x": rng.uniform(-1, 1, shape),
        "w": rng.uniform(-1, 1, (cout, cin) + (k,) * (len(shape) - 2)),
        "bias": rng.uniform(-1, 1, cout),
        "gamma": rng.uniform(0.5, 1.5, cout),
        "beta": rng.uniform(-1, 1, cout),
        "mean": rng.uniform(-0.1, 0.1, cout),
        "var": rng.uniform(0.5, 1.5, cout),
    }


def run_block(op, arrays, training, g):
    """Output, running stats and the x/w/bias/gamma/beta gradients of ``op``
    (``conv_block`` or ``reference_block``), given the output gradient ``g``."""
    stats = RunningStats(len(arrays["mean"]))
    stats.mean, stats.var = arrays["mean"].copy(), arrays["var"].copy()
    tensors = [Tensor(arrays[k], requires_grad=True) for k in ("x", "w", "bias", "gamma", "beta")]
    with T.recording() as tape:
        out = op(*tensors, stats, training)
    backward_from(tape, out, g)
    return [out.data, stats.mean, stats.var] + [t.grad for t in tensors]


def loop_oracles(arrays, training):
    """Output and running stats of the block from the loop oracles."""
    loops = oracles.conv1d_loops if arrays["x"].ndim == 3 else oracles.conv2d_loops
    bn, mean, var = oracles.batch_norm_loops(
        loops(arrays["x"], arrays["w"], arrays["bias"]), arrays["gamma"], arrays["beta"],
        arrays["mean"], arrays["var"], training)
    return oracles.leaky_relu_loops(bn), mean, var


# (input shape, kernel) of same-size convs checked against the loop oracles;
# with k=5 on a 1-long axis every tap but the middle one reads only padding.
ORACLE_CASES = [((2, 3, 10), 3), ((2, 3, 10), 5), ((2, 3, 6, 5), 1), ((2, 3, 6, 5), 3),
                ((2, 3, 6, 5), 5), ((3, 2, 1), 5), ((2, 2, 1, 2), 5)]


def oracle_case_id(case):
    shape, k = case
    return f"{len(shape) - 2}d-{'x'.join(map(str, shape))}-k{k}"


class TestIm2colIsFullyWritten:
    """``conv_block`` takes its im2col buffer from ``np.empty`` and zeroes
    only the strips that each tap's copy leaves out. With every
    uninitialised array filled with NaN, any position left unwritten would
    poison the output. Each case runs on a C-ordered input (read through a
    flat copy of each channel block), a channel-major one (a conv's output,
    read in place) and a Fortran-ordered one (also copied)."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=oracle_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_matches_oracle_with_nan_filled_buffers(self, rng, monkeypatch, case, training):
        shape, k = case
        base = block_arrays(rng, shape, 4, k)
        want = loop_oracles(base, training)
        g = rng.uniform(-1, 1, (shape[0], 4) + shape[2:])
        inputs = [dict(base, x=in_layout(base["x"], order)) for order in ("C", "CM", "F")]
        clean = [run_block(T.conv_block, arrays, training, g) for arrays in inputs]
        fill_empty_with_nan(monkeypatch)
        for arrays, want_all in zip(inputs, clean):
            dirty = run_block(T.conv_block, arrays, training, g)
            for got, ref in zip(dirty, want):
                np.testing.assert_allclose(got, ref, atol=1e-12)
            for got, ref in zip(dirty, want_all):
                assert got.tobytes() == ref.tobytes()


# The oracle cases, and inputs no wider than the padding (each shifted run
# reaches past the whole batch), a 1x1 kernel on a 1D input, kernels wider
# than one input axis, and inputs of a few channel blocks.
KERNEL_CASES = ORACLE_CASES + [((1, 3, 2), 5), ((1, 2, 1, 2), 5), ((2, 3, 10), 1),
                               ((2, 3, 4), 7), ((2, 3, 6, 5), 7), ((8, 5, 2048), 3),
                               ((4, 5, 48, 48), 3)]


class TestIm2colKernel:
    """Bytes of the im2col matrix and of col2im's dx against references that
    pad the input. Each tap is one shifted run, read in place from a
    channel-major input, whose batch and spatial axes merge, and through a
    flat copy of each channel block from a C- or Fortran-ordered one."""

    @staticmethod
    def _setup(rng, case, order):
        shape, k = case
        return in_layout(rng.uniform(-1, 1, shape), order), T._plan(list(shape[2:]), k)

    @pytest.mark.parametrize("shape, order, merges", [
        ((2, 3, 6, 5), "CM", True), ((2, 3, 6, 5), "C", False), ((2, 3, 6, 5), "F", False),
        ((2, 1, 6, 5), "C", True), ((2, 3, 10), "CM", True), ((2, 3, 10), "C", False),
    ])
    def test_flat_view_or_none(self, rng, shape, order, merges):
        xc = in_layout(rng.uniform(-1, 1, shape), order).transpose(T._cm(len(shape)))
        flat = T._flat(xc)
        assert (flat is not None) == merges
        if merges:
            assert flat.shape == (shape[1], xc[0].size) and np.shares_memory(flat, xc)

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=oracle_case_id)
    @pytest.mark.parametrize("order", ["C", "CM", "F"])
    def test_im2col_matches_padded_windows(self, rng, case, order):
        x, plan = self._setup(rng, case, order)
        cols = np.empty((x.shape[1], len(plan)) + x.shape[:1] + x.shape[2:])
        T._im2col(x.transpose(T._cm(x.ndim)), cols, plan)
        assert cols.tobytes() == np.ascontiguousarray(im2col_reference(x, case[1])).tobytes()

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=oracle_case_id)
    @pytest.mark.parametrize("order", ["C", "CM", "F"])
    @pytest.mark.parametrize("fill", ["uniform", "negative-zero"])
    def test_col2im_matches_padded_buffer(self, rng, case, order, fill):
        """Where a shifted run wraps, col2im adds a zeroed dcols entry; with
        every dcols entry -0.0, dx must still be +0.0 everywhere."""
        shape, k = case
        x, plan = self._setup(rng, case, order)
        dshape = (shape[1], len(plan), shape[0]) + shape[2:]
        dcols = rng.uniform(-1, 1, dshape) if fill == "uniform" else np.full(dshape, -0.0)
        want = col2im_reference(dcols, shape, k)
        dx = np.zeros_like(x)
        T._im2col(dx.transpose(T._cm(dx.ndim)), dcols.copy(), plan, add=True)
        assert np.ascontiguousarray(dx).tobytes() == np.ascontiguousarray(want).tobytes()


class TestAdaptivePool:
    def test_halving(self):
        out = T.adaptive_avg_pool(Tensor([[[1.0, 2.0, 3.0, 4.0]]]), (2,))
        np.testing.assert_array_equal(out.data, [[[1.5, 3.5]]])

    def test_same_size_is_identity(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 7))
        out = T.adaptive_avg_pool(Tensor(x), (7,))
        np.testing.assert_array_equal(out.data, x)

    def test_uneven_bins_match_oracle(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 10))
        out = T.adaptive_avg_pool(Tensor(x), (3,))
        np.testing.assert_allclose(out.data, oracles.adaptive_pool1d_loops(x, 3), atol=1e-12)

    def test_2d_matches_oracle(self, rng):
        x = rng.uniform(-1, 1, (2, 2, 7, 9))
        out = T.adaptive_avg_pool(Tensor(x), (3, 4))
        np.testing.assert_allclose(
            out.data, oracles.adaptive_pool2d_loops(x, 3, 4), atol=1e-12
        )

    @pytest.mark.parametrize("size", [(7, 4), (3, 9), (7, 9)], ids=["w-only", "h-only", "same"])
    def test_2d_pools_only_changed_axes(self, rng, size):
        x = rng.uniform(-1, 1, (2, 2, 7, 9))
        out = T.adaptive_avg_pool(Tensor(x), size)
        np.testing.assert_allclose(out.data, oracles.adaptive_pool2d_loops(x, *size), atol=1e-12)

    @pytest.mark.parametrize("size", [0, 11])
    def test_bad_output_size(self, size):
        with pytest.raises(DimensionError):
            T.adaptive_avg_pool(Tensor(np.ones((1, 1, 10))), (size,))

    @pytest.mark.parametrize("shape, size", [((1, 1, 10), (2, 2)), ((1, 1, 6, 5), (2,)),
                                             ((2, 10), ())], ids=["1d", "2d", "no-axes"])
    def test_one_output_size_per_spatial_axis(self, shape, size):
        with pytest.raises(DimensionError, match="one output size per spatial axis"):
            T.adaptive_avg_pool(Tensor(np.ones(shape)), size)

    @pytest.mark.parametrize("size", [(0, 3), (3, 0), (7, 3), (3, 6)],
                             ids=["h-zero", "w-zero", "h-too-big", "w-too-big"])
    def test_bad_output_size_2d(self, size):
        with pytest.raises(DimensionError, match="invalid for input size 6x5"):
            T.adaptive_avg_pool(Tensor(np.ones((1, 1, 6, 5))), size)


# (input shape, output channels, kernel). 16384 elements per output channel
# give channel blocks of two: 5 channels run as 2+3 and 7 as 2+2+3; 10240
# per channel give blocks of three, so 7 runs as 3+4.
BLOCK_CASES = (
    [((8, 2, 2048), c, 3) for c in (1, 2, 3, 5, 7)]
    + [((4, 2, 64, 64), c, 3) for c in (1, 2, 3, 5, 7)]
    + [((8, 2, 1280), 7, 3), ((2, 3, 6, 5), 4, 5)]
)


def block_case_id(case):
    shape, cout, k = case
    return f"{len(shape) - 2}d-{'x'.join(map(str, shape))}-c{cout}-k{k}p{k // 2}"


def out_shape(arrays):
    return (arrays["x"].shape[0], len(arrays["bias"])) + arrays["x"].shape[2:]


class TestConvBlock:
    NAMES = ("out", "running mean", "running var", "dx", "dw", "dbias", "dgamma", "dbeta")

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=oracle_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_matches_loop_oracles(self, rng, case, training):
        """Output and running stats against the conv, batch-norm and
        LeakyReLU loop oracles; eval mode leaves the running stats alone."""
        shape, k = case
        arrays = block_arrays(rng, shape, 4, k)
        got = run_block(T.conv_block, arrays, training, rng.uniform(-1, 1, out_shape(arrays)))
        for name, a, b in zip(self.NAMES, got, loop_oracles(arrays, training)):
            np.testing.assert_allclose(a, b, atol=1e-12, err_msg=name)
        if not training:
            assert got[1].tobytes() == arrays["mean"].tobytes()
            assert got[2].tobytes() == arrays["var"].tobytes()

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=block_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("x_order", ["C", "CM", "F"])
    def test_matches_unfused_ops_byte_for_byte(self, rng, case, training, x_order):
        """A model's first block reads a C-ordered input and every later one
        the channel-major output of the block before it; dx must keep the
        input's layout either way."""
        arrays = block_arrays(rng, *case)
        arrays["x"] = in_layout(arrays["x"], x_order)
        upstream = rng.uniform(-1, 1, out_shape(arrays))
        for g_order in ("C", "CM"):
            g = in_layout(upstream, g_order)
            want = run_block(reference_block, arrays, training, g)
            got = run_block(T.conv_block, arrays, training, g)
            for name, a, b in zip(self.NAMES, got, want):
                assert a.tobytes() == b.tobytes(), f"{name} bytes differ (g {g_order})"
            assert layout(got[0]) == layout(want[0])
            assert layout(got[3]) == layout(want[3]) == layout(arrays["x"])

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=block_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("x_order", ["C", "CM"])
    def test_two_lanes_give_the_bytes_of_one(self, rng, lanes, case, training, x_order):
        """With two lanes the passes between the GEMMs spread their channel
        blocks over them."""
        arrays = block_arrays(rng, *case)
        arrays["x"] = in_layout(arrays["x"], x_order)
        g = in_layout(rng.uniform(-1, 1, out_shape(arrays)), "CM")
        runs = []
        for n in (1, 2):
            lanes(n)
            runs.append(run_block(T.conv_block, arrays, training, g))
        for name, a, b in zip(self.NAMES, *runs):
            assert a.tobytes() == b.tobytes(), f"{name} bytes differ"

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_factor_follows_batch_norm_output_not_activation(self, rng, training):
        """With gamma 0 and beta -5e-324 the batch-norm output is -5e-324, so
        the LeakyReLU factor is the slope; but 0.01 * -5e-324 underflows to
        -0.0, so the activation is -0.0 and reads as >= 0. A backward that took
        the factor from the activation would give dbeta = sum(g), not
        0.01 * sum(g)."""
        arrays = block_arrays(rng, (3, 2, 8), 3, 3)
        arrays["gamma"], arrays["beta"] = np.zeros(3), np.full(3, -5e-324)
        g = np.ones(out_shape(arrays))
        got = run_block(T.conv_block, arrays, training, g)
        assert np.all(got[0] == 0.0) and np.all(np.signbit(got[0]))
        want = run_block(reference_block, arrays, training, g)
        for name, a, b in zip(self.NAMES, got, want):
            assert a.tobytes() == b.tobytes(), f"{name} bytes differ"
        np.testing.assert_array_equal(got[-1], np.full(3, 0.01 * 24))

    @pytest.mark.parametrize("case", [BLOCK_CASES[3], BLOCK_CASES[9], BLOCK_CASES[-1]],
                             ids=block_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_every_empty_buffer_is_fully_written(self, rng, monkeypatch, case, training):
        arrays = block_arrays(rng, *case)
        g = rng.uniform(-1, 1, out_shape(arrays))
        clean = run_block(T.conv_block, arrays, training, g)
        fill_empty_with_nan(monkeypatch)
        dirty = run_block(T.conv_block, arrays, training, g)
        for name, a, b in zip(self.NAMES, dirty, clean):
            assert a.tobytes() == b.tobytes(), f"{name} bytes differ"

    def test_channel_blocks(self):
        assert T._channel_blocks(1, 16384, 32768) == [slice(0, 1)]
        assert T._channel_blocks(5, 16384, 32768) == [slice(0, 2), slice(2, 5)]
        assert T._channel_blocks(6, 16384, 32768) == [slice(0, 2), slice(2, 4), slice(4, 6)]
        assert T._channel_blocks(7, 10240, 32768) == [slice(0, 3), slice(3, 7)]
        assert T._channel_blocks(9, 100, 32768) == [slice(0, 9)]
        assert T._channel_blocks(4, 10**6, 32768) == [slice(0, 2), slice(2, 4)]

    def test_records_one_rule(self, rng):
        x, w, bias, gamma, beta = rt(rng, 2, 3, 5, 5), rt(rng, 4, 3, 3, 3), rt(rng, 4), rt(rng, 4), rt(rng, 4)
        with T.recording() as tape:
            T.conv_block(x, w, bias, gamma, beta, RunningStats(4), True)
        assert len(tape) == 1
        with T.recording() as tape:
            T.conv_block(*(Tensor(t.data) for t in (x, w, bias, gamma, beta)),
                         RunningStats(4), True)
        assert len(tape) == 0

    def test_recorded_chain_holds_xhat_and_no_output(self, rng):
        """A recorded 3-block chain of 3x3 convs keeps, per block, its xhat
        and nothing else of activation size: a block's input, which dW
        rebuilds its im2col rows from, is the block before's output, made
        again from that block's xhat (``tensor._Recipe``). So about one
        activation a block, where keeping each block's input too held 2 a
        block (5.17 here), and the im2col matrix instead 9 + 1. The
        unfused conv, batch norm and LeakyReLU kept three more: the conv
        output, the batch-norm output and the LeakyReLU output."""
        b, c, h = 8, 8, 16
        x = Tensor(rng.uniform(-1, 1, (b, c, h, h)))
        blocks = [(rt(rng, c, c, 3, 3), rt(rng, c), rt(rng, c), rt(rng, c)) for _ in range(3)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with T.recording() as tape:
                out = x
                for w, bias, gamma, beta in blocks:
                    out = T.conv_block(out, w, bias, gamma, beta, RunningStats(c), True)
            del out
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(tape) == len(blocks)
        assert held / x.data.nbytes < len(blocks) + 1

    def test_unrecorded_eval_block_holds_one_activation(self, rng):
        """An eval block that records no rule writes its output over xhat:
        besides its one output-sized array it allocates only the im2col
        matrix (0.28 of an output here) and block-sized temporaries, where
        a second output-sized array would peak at 2 or more. The output has
        the bytes and layout of the same block under a tape."""
        arrays = block_arrays(rng, (16, 1, 32, 32), 32, 3)
        inputs = [arrays[k] for k in ("x", "w", "bias", "gamma", "beta")]

        def block(requires_grad):
            stats = RunningStats(32)
            stats.mean, stats.var = arrays["mean"], arrays["var"]
            tensors = [Tensor(a, requires_grad=requires_grad) for a in inputs]
            return T.conv_block(*tensors, stats, False)

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = block(False)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / out.data.nbytes < 1.5
        with T.recording() as tape:
            recorded = block(True)
        assert len(tape) == 1
        assert out.data.tobytes() == recorded.data.tobytes()
        assert out.data.strides == recorded.data.strides

    def test_rules_free_the_activations_they_do_not_read(self, rng):
        """In a recorded conv block -> SE2D -> conv block -> pool chain,
        every block output and the gated product are freed when the forward
        pass lets go of them: the pool reads none of its input, and the
        gate's rule and the second block's, which read the first block's
        output and the gated product, recompute them from the first block's
        xhat. No rule holds an array as large as a block's im2col matrix."""
        from sasvbackend import attention as att

        def block(cin, cout):
            return rt(rng, cout, cin, 3, 3), rt(rng, cout), rt(rng, cout), rt(rng, cout)

        x = Tensor(rng.uniform(-1, 1, (4, 3, 6, 6)))
        first, second = block(3, 8), block(8, 8)
        params = att.AttentionParams.init(att.SE2D, rng, channels=8, features=6, reduction=2)
        for w in params.weights.values():
            w.requires_grad = True
        with T.recording() as tape:
            a = T.conv_block(x, *first, RunningStats(8), True)
            gated = att.apply_attention(a, params)
            b = T.conv_block(gated, *second, RunningStats(8), True)
            loss = T.sum_all(T.adaptive_avg_pool(b, (2, 2)))
        freed = [weakref.ref(t.data) for t in (a, gated, b)]
        del a, gated, b
        assert all(ref() is None for ref in freed)
        smallest_cols = 3 * 9 * x.data[:, 0].size * 8  # the first block's im2col bytes
        assert max(arr.nbytes for arr in held_arrays(tape)) < smallest_cols
        tape.backward(loss)
        assert all(t.grad is not None for t in first + second)

    def test_rule_frees_output_gradient_of_dropped_output(self, rng):
        """Once its backward epilogue has read it, a block's rule drops the
        output gradient before it allocates the im2col buffer and dx, unless
        the caller still holds the output: then the output keeps its grad,
        and the backward peaks one output array higher. The output gradient
        is made inside the backward, so only the tape and the output hold
        it; the 1 KB allowance is for small Python objects."""
        def backward_peak(keep):
            x = rt(rng, 8, 4, 16, 16)
            params = rt(rng, 4, 4, 3, 3), rt(rng, 4), rt(rng, 4), rt(rng, 4)
            with T.recording() as tape:
                out = T.conv_block(x, *params, RunningStats(4), True)
            so, shape, nbytes = out.slot, out.shape, out.data.nbytes
            tape.record(lambda: setattr(so, "grad", np.ones(shape)))
            held = out if keep else None
            del out
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                tape.backward(Tensor(0.0))
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert all(t.grad is not None for t in (x,) + params)
            assert (so.grad is not None) == keep
            if keep:
                assert held.grad is so.grad
            return peak, nbytes

        dropped, output = backward_peak(False)
        held, _ = backward_peak(True)
        assert held - dropped >= output - 1024

    def test_freeing_changes_no_gradient_byte(self, rng):
        """A recorded 3-block training chain gives its parameters and input
        the same gradient bytes whether the caller holds every block output
        or none; the held outputs keep their gradients."""
        x = rng.uniform(-1, 1, (6, 3, 8, 8))
        shapes = [(4, 3, 3, 3), (5, 4, 3, 3), (3, 5, 3, 3)]
        weights = [[rng.uniform(-1, 1, s)] + [rng.uniform(-1, 1, s[0]) for _ in range(3)]
                   for s in shapes]

        def run(hold):
            xt = Tensor(x, requires_grad=True)
            params = [[Tensor(a, requires_grad=True) for a in block] for block in weights]
            outs = []
            with T.recording() as tape:
                out = xt
                for p in params:
                    out = T.conv_block(out, *p, RunningStats(len(p[1].data)), True)
                    if hold:
                        outs.append(out)
                loss = T.sum_all(T.mul(out, out))
            del out
            tape.backward(loss)
            assert all(o.grad is not None and o.grad.shape == o.shape for o in outs)
            return [xt.grad] + [t.grad for p in params for t in p]

        for a, b in zip(run(True), run(False)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad, match", [
        ({"x": (2, 3, 5, 5, 5), "w": (4, 3, 3, 3, 3)}, "conv_block needs"),
        ({"w": (4, 3, 3)}, "conv_block needs"),
        ({"gamma": (5,)}, "gamma must have shape"),
        ({"bias": (4, 1)}, "bias must have shape"),
        ({"x": (1, 3, 5, 5)}, "batch >= 2"),
        ({"x": (2, 3, 0, 5)}, "non-empty"),
        ({"w": (4, 2, 3, 3)}, "channel mismatch"),
        ({"w": (4, 3, 3, 2)}, "square and odd"),
        ({"w": (4, 3, 4, 4)}, "square and odd"),
    ], ids=["rank", "weight-rank", "gamma", "bias", "batch", "empty", "channels",
            "non-square", "even"])
    def test_shapes_are_checked(self, bad, match):
        shapes = {"x": (2, 3, 5, 5), "w": (4, 3, 3, 3), "bias": (4,), "gamma": (4,), "beta": (4,)}
        shapes.update(bad)
        ts = [Tensor(np.ones(shapes[k])) for k in ("x", "w", "bias", "gamma", "beta")]
        with pytest.raises(DimensionError, match=match):
            T.conv_block(*ts, RunningStats(4), True)


def recorded_block(rng, shape, cout, training=True):
    """A recorded conv block's output on a random input of ``shape``."""
    k, nd = 3, len(shape) - 2
    params = rt(rng, cout, shape[1], *(k,) * nd), rt(rng, cout), rt(rng, cout), rt(rng, cout)
    return T.conv_block(rt(rng, *shape), *params, RunningStats(cout), training)


def gate(rng, kind, t):
    """``t`` gated by a random attention block of ``kind``."""
    from sasvbackend import attention as att
    params = att.AttentionParams.init(kind, rng, channels=t.shape[1], features=t.shape[-1],
                                      reduction=2)
    return att.apply_attention(t, params)


class TestRecipe:
    """A recorded conv block's output, and a product whose rule keeps both
    factors, carry a recipe that gives their data again from arrays the
    tape holds anyway, so that no rule keeps the data."""

    @pytest.mark.parametrize("case", ["conv1d", "conv2d", "SE2D", "PA", "VSE"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_gives_the_bytes_and_strides_of_the_data(self, rng, case, training):
        shape = (5, 4, 7) if case in ("conv1d", "PA") else (5, 4, 6, 7)
        with T.recording():
            out = recorded_block(rng, shape, 6, training)
            if case not in ("conv1d", "conv2d"):
                out = gate(rng, case, out)
        recipe = out.recipe
        assert recipe is not None
        if case.startswith("conv"):  # channel-major: the batch and spatial axes merge
            assert out.data.transpose(T._cm(out.data.ndim)).flags.c_contiguous
        whole = recipe()
        assert whole.tobytes() == out.data.tobytes()
        assert whole.strides == out.data.strides
        zeros = recipe.zeros()
        assert zeros.strides == out.data.strides and not zeros.any()
        part = recipe(slice(2, 5))  # channel-major (C, B, ...), as im2col reads it
        assert part.flags.c_contiguous
        assert part.tobytes() == np.ascontiguousarray(
            out.data[:, 2:5].transpose(T._cm(out.data.ndim))).tobytes()

    @pytest.mark.parametrize("g_order", ["C", "CM", "F"])
    def test_gate_gradient_is_reduced_block_by_block(self, rng, monkeypatch, g_order):
        """A product's gradient for a gate of one value per channel, or per
        channel and position, made from a recipe one channel block at a
        time: the bytes and layout of the sum of the whole product, and the
        whole factor is never made."""
        with T.recording():
            conv1d = recorded_block(rng, (6, 16, 9), 16)
            conv2d = recorded_block(rng, (6, 16, 5, 7), 16)
            gated = gate(rng, "VSE", recorded_block(rng, (6, 16, 5, 7), 16))
        cases = [(conv1d, (6, 16, 1))] + [(t, s) for t in (conv2d, gated)
                                          for s in ((6, 16, 1, 1), (6, 16, 5, 1), (6, 16, 1, 7))]
        monkeypatch.setattr(T._lanes, "BLOCK", 1 << 7)  # two channels a block
        for t, shape in cases:
            g = in_layout(rng.uniform(-1, 1, t.shape), g_order)
            want = T._unbroadcast(np.multiply(g, t.recipe()), shape)
            calls, call = [], T._Recipe.__call__

            def spy(recipe, blk=None):
                calls.append(blk)
                return call(recipe, blk)

            with monkeypatch.context() as patch:
                patch.setattr(T._Recipe, "__call__", spy)
                got = T._product_grad(g, t.recipe, shape)
            assert None not in calls, shape  # no whole remake
            assert got.tobytes() == want.tobytes(), shape
            assert layout(got) == layout(want), shape

    def test_unrecorded_eval_block_makes_none(self, rng):
        assert recorded_block(rng, (5, 4, 6, 7), 6, training=False).recipe is None

    def test_product_with_one_graded_factor_makes_none(self, rng):
        with T.recording():
            t = recorded_block(rng, (5, 4, 7), 6)
            gated = T.mul(t, Tensor(rng.uniform(-1, 1, (5, 6, 1))))
        assert t.recipe is not None and gated.recipe is None

    def test_held_outputs_keep_data_and_grad(self, rng):
        """A caller that holds a block output and a gated product reads their
        data and gradients after the backward; the rules that made them
        dropped the recipes, which were stale once those rules ran."""
        with T.recording() as tape:
            a = recorded_block(rng, (5, 4, 6, 7), 6)
            gated = gate(rng, "SE2D", a)
            b = T.conv_block(gated, rt(rng, 3, 6, 3, 3), rt(rng, 3), rt(rng, 3), rt(rng, 3),
                             RunningStats(3), True)
            loss = T.sum_all(T.mul(b, b))
        data = [t.data.copy() for t in (a, gated, b)]
        tape.backward(loss)
        for t, before in zip((a, gated, b), data):
            assert t.data.tobytes() == before.tobytes()
            assert t.grad is not None and t.grad.shape == t.shape
            assert t.recipe is None


# (input shape, output channels, kernel) of every preset's conv blocks at the
# synthetic default D=16 and the benchmark's training batch of 90, and of
# the 1D blocks at the 64 positions of the benchmark's 1D workload.
PRESET_BLOCKS = [((90, 3, 16, 16), 32, 5), ((90, 32, 16, 16), 64, 3), ((90, 64, 16, 16), 128, 3),
                 ((90, 128, 16, 16), 256, 3), ((90, 3, 16), 256, 3), ((90, 256, 16), 128, 3),
                 ((90, 128, 16), 64, 3), ((90, 3, 64), 256, 3), ((90, 256, 64), 128, 3),
                 ((90, 128, 64), 64, 3)]

WHOLE = 1 << 62  # an im2col budget that any im2col matrix fits


def set_budget(monkeypatch, budget):
    """im2col pieces sized by ``budget`` elements: item chunks of at most
    that, dW runs of up to four times that."""
    monkeypatch.setattr(T, "_PIECE_BUDGET", budget)


class TestConvBlockChunks:
    """``conv_block`` builds im2col pieces sized by ``_PIECE_BUDGET``:
    chunks of batch items of at most that for the forward and dx, and runs
    of a power of two input channels, rebuilt from the block's input, of up
    to four times that for dW. Every chunking gives the bytes of one whole
    chunk: the output, the running stats and all five gradients. The
    budgets here cut each block into three to five chunks, whose products
    stay as large as the default budget makes them: OpenBLAS runs small
    products with other kernels."""

    NAMES = TestConvBlock.NAMES

    def _check(self, monkeypatch, arrays, training, g, budgets, nan_fill=False):
        """``budgets``: each sizes both kinds of piece; None for the module's
        own sizes."""
        x, k = arrays["x"], arrays["w"].shape[-1]
        b, cin, pos = x.shape[0], x.shape[1], x[0, 0].size
        per_item, g_size = cin * k ** (x.ndim - 2) * pos, g.size
        with monkeypatch.context() as patch:
            set_budget(patch, WHOLE)
            assert T._item_chunks(b, per_item, pos) == [slice(0, b)]
            assert T._pow2_chunks(cin, per_item * b // cin, g_size) == [slice(0, cin)]
            want = run_block(T.conv_block, arrays, training, g)
        if nan_fill:
            fill_empty_with_nan(monkeypatch)
        for budget in budgets:
            with monkeypatch.context() as patch:
                if budget is not None:
                    set_budget(patch, budget)
                assert len(T._item_chunks(b, per_item, pos)) > 1
                # three channels never split: a run has two or more
                assert len(T._pow2_chunks(cin, per_item * b // cin, g_size)) > 1 or cin == 3
                got = run_block(T.conv_block, arrays, training, g)
            for name, a, ref in zip(self.NAMES, got, want):
                assert a.tobytes() == ref.tobytes(), f"{name} bytes differ at budget {budget}"
            assert layout(got[3]) == layout(want[3]) == layout(x)

    @pytest.mark.parametrize("case", [((16, 64, 64), 64, 3), ((12, 16, 16, 16), 32, 3)],
                             ids=block_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("x_order", ["C", "CM"])
    def test_chunks_match_one_whole_chunk(self, rng, monkeypatch, case, training, x_order):
        """The chunked runs take their buffers from an ``np.empty`` that
        fills them with NaN, so any element a chunk leaves unwritten would
        show."""
        arrays = block_arrays(rng, *case)
        arrays["x"] = in_layout(arrays["x"], x_order)
        g = in_layout(rng.uniform(-1, 1, out_shape(arrays)), "CM")
        cols = arrays["w"][0].size * arrays["x"][:, 0].size
        self._check(monkeypatch, arrays, training, g, [cols // 4], nan_fill=True)

    @pytest.mark.parametrize("case", PRESET_BLOCKS, ids=block_case_id)
    def test_preset_blocks_at_batch_90(self, rng, monkeypatch, case):
        """Each preset block in training mode on the input layout it gets in
        a model: C-ordered for the first block, channel-major after. A third
        of the whole im2col matrix, and the module's own sizes where they
        split the block (cin 32 and up in 2D, and the 1D blocks at 64
        positions from cin 128)."""
        arrays = block_arrays(rng, *case)
        if case[0][1] != 3:
            arrays["x"] = in_layout(arrays["x"], "CM")
        g = in_layout(rng.uniform(-1, 1, out_shape(arrays)), "CM")
        x = arrays["x"]
        cols = arrays["w"][0].size * x[:, 0].size
        splits = len(T._item_chunks(x.shape[0], cols // x.shape[0], x[0, 0].size)) > 1
        self._check(monkeypatch, arrays, True, g, [cols // 3] + ([None] if splits else []))

    def test_chunk_sizes(self, monkeypatch):
        monkeypatch.setattr(T, "_PIECE_BUDGET", 100)
        assert T._item_chunks(3, 30, 16) == [slice(0, 3)]
        assert T._item_chunks(5, 30, 16) == [slice(0, 3), slice(3, 5)]
        assert T._item_chunks(7, 30, 16) == [slice(0, 3), slice(3, 5), slice(5, 7)]  # not 3+3+1
        assert T._item_chunks(9, 25, 32) == [slice(0, 3), slice(3, 6), slice(6, 9)]
        assert T._item_chunks(5, 101, 16) == [slice(i, i + 1) for i in range(5)]
        assert T._item_chunks(8, 10, 4) == [slice(0, 8)]
        assert T._item_chunks(12, 10, 4) == [slice(0, 8), slice(8, 12)]  # 4 items per 16 columns
        assert T._item_chunks(20, 30, 9) == [slice(0, 16), slice(16, 20)]  # 16 over budget
        assert T._pow2_chunks(10, 10, 0) == [slice(0, 10)]
        assert T._pow2_chunks(11, 10, 0) == [slice(0, 8), slice(8, 11)]
        assert T._pow2_chunks(17, 6, 0) == [slice(0, 17)]  # 16 + 1: the single joins
        assert T._pow2_chunks(9, 12, 0) == [slice(0, 9)]
        assert T._pow2_chunks(5, 40, 0) == [slice(0, 2), slice(2, 5)]
        assert T._pow2_chunks(6, 1000, 0) == [slice(0, 2), slice(2, 4), slice(4, 6)]
        # Item chunks hold the budget; dW runs twice the output gradient,
        # but at least the budget and at most four times it.
        monkeypatch.setattr(T, "_PIECE_BUDGET", 40)
        assert T._item_chunks(7, 10, 16) == [slice(0, 4), slice(4, 7)]
        assert T._pow2_chunks(11, 10, 0) == [slice(0, 4), slice(4, 8), slice(8, 11)]
        assert T._pow2_chunks(11, 10, 30) == [slice(0, 4), slice(4, 8), slice(8, 11)]
        assert T._pow2_chunks(11, 10, 40) == [slice(0, 8), slice(8, 11)]
        assert T._pow2_chunks(9, 10, 45) == [slice(0, 9)]  # 90 fits twice 45
        assert T._pow2_chunks(16, 10, 1000) == [slice(0, 16)]  # 160 is four times 40
        assert T._pow2_chunks(17, 10, 1000) == [slice(0, 17)]  # 16 + 1: the single joins
        assert T._pow2_chunks(20, 10, 1000) == [slice(0, 16), slice(16, 20)]

    def test_dw_runs_are_powers_of_two_within_the_budget(self, monkeypatch):
        """dW's runs of a split block are one power of two of at least 2
        channels, the largest whose run fits twice the output gradient, held
        to one to four times ``_PIECE_BUDGET``, and a last run of at most
        one channel more."""
        piece = 1 << 9
        monkeypatch.setattr(T, "_PIECE_BUDGET", piece)
        for c, n, g in itertools.product([2, 3, 5, 17, 64, 100], [1, 7, 64, 250, 2 * piece],
                                         [0, 100, 1000, 1 << 14]):
            budget = min(4 * piece, max(piece, 2 * g))
            runs = T._pow2_chunks(c, n, g)
            sizes = [r.stop - r.start for r in runs]
            assert runs[0].start == 0 and sum(sizes) == c
            if len(runs) == 1:
                assert c * n <= budget or c <= 3
            else:
                step = sizes[0]
                assert step >= 2 and step & (step - 1) == 0
                assert step * n <= budget < 2 * step * n or step == 2
                assert sizes[:-1] == [step] * (len(runs) - 1) and 2 <= sizes[-1] <= step + 1


def plain_block(x, w, bias=None, gamma=None, beta=None, training=False, stats=None):
    """``conv_block`` with bias 0, gamma 1 and beta 0 unless given. In eval
    mode with running mean 0 and variance 1 - eps the batch norm divides by
    exactly 1, so the output is the LeakyReLU of the conv."""
    cout = w.shape[0]
    if stats is None:
        stats = RunningStats(cout)
        stats.var = np.full(cout, 1.0 - 1e-5)
        assert np.all(stats.var + 1e-5 == 1.0)
    params = [np.zeros(cout) if bias is None else bias, np.ones(cout) if gamma is None else gamma,
              np.zeros(cout) if beta is None else beta]
    return T.conv_block(Tensor(x), Tensor(w), *map(Tensor, params), stats, training).data


def unleaky(out):
    """The batch-norm output behind a LeakyReLU output of slope 0.01."""
    return np.where(out < 0, out / 0.01, out)


class TestConvBlockHandComputed:
    @pytest.mark.parametrize("shape, k", [((2, 1, 5), 1), ((2, 1, 5), 3), ((1, 1, 4, 4), 1),
                                          ((1, 1, 4, 4), 5)], ids=["1d-k1", "1d-k3", "2d-k1", "2d-k5"])
    def test_centre_tap_kernel_is_identity(self, rng, shape, k):
        x = rng.uniform(-1, 1, shape)
        w = np.zeros((1, 1) + (k,) * (len(shape) - 2))
        w[(0, 0) + (k // 2,) * (len(shape) - 2)] = 1.0
        np.testing.assert_array_equal(plain_block(x, w), np.maximum(x, 0.01 * x))

    @pytest.mark.parametrize("shape, want", [
        ((1, 1, 4), [[[2.0, 3.0, 3.0, 2.0]]]),
        ((1, 1, 3, 3), [[[[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]]]),
    ], ids=["1d", "2d"])
    def test_all_ones_kernel_counts_the_window(self, shape, want):
        """Each output counts the input positions its window covers; the
        zero padding counts for nothing."""
        w = np.ones((1, 1) + (3,) * (len(shape) - 2))
        np.testing.assert_array_equal(plain_block(np.ones(shape), w), want)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_zero_kernel_gives_bias_then_beta(self, rng, training):
        """A zero kernel makes the conv output the bias. Eval mode passes it
        through; training mode subtracts it as the batch mean, leaving beta."""
        bias, beta = np.array([1.5, -2.0, 0.25]), np.array([-1.0, 0.5, 0.0])
        out = plain_block(rng.uniform(-1, 1, (4, 2, 5)), np.zeros((3, 2, 3)), bias=bias,
                          beta=beta, training=training)
        pre = beta if training else bias + beta
        want = np.broadcast_to(np.maximum(pre, 0.01 * pre)[None, :, None], (4, 3, 5))
        np.testing.assert_array_equal(out, want)


class TestConvBlockBatchNorm:
    """The batch norm inside ``conv_block``, read through its LeakyReLU."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_zero_gamma_gives_beta(self, rng, training):
        beta = np.array([1.0, -2.0, 0.5])
        out = plain_block(rng.uniform(-1, 1, (4, 2, 5)), rng.uniform(-1, 1, (3, 2, 3)),
                          gamma=np.zeros(3), beta=beta, training=training)
        want = np.maximum(beta, 0.01 * beta)[None, :, None]
        np.testing.assert_array_equal(out, np.broadcast_to(want, (4, 3, 5)))

    @pytest.mark.parametrize("shape", [(8, 3, 12), (8, 3, 6, 6)], ids=["1d", "2d"])
    def test_normalizes_moments(self, rng, shape):
        x, w = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, (4, 3) + (3,) * (len(shape) - 2))
        loops = oracles.conv1d_loops if len(shape) == 3 else oracles.conv2d_loops
        axes = (0,) + tuple(range(2, len(shape)))
        batch_var = loops(x, w, np.zeros(4)).var(axis=axes)
        bn = unleaky(plain_block(x, w, training=True))
        assert np.abs(bn.mean(axis=axes)).max() < 1e-9
        # output variance is batch_var/(batch_var+eps), i.e. 1 up to the eps shrinkage
        np.testing.assert_allclose(bn.var(axis=axes), batch_var / (batch_var + 1e-5), atol=1e-6)

    @pytest.mark.parametrize("shape", [(6, 3, 4), (6, 3, 4, 5)], ids=["1d", "2d"])
    def test_running_stats_then_eval_mode(self, rng, shape):
        x, w = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, (2, 3) + (3,) * (len(shape) - 2))
        bias = rng.uniform(-1, 1, 2)
        loops = oracles.conv1d_loops if len(shape) == 3 else oracles.conv2d_loops
        axes, cshape = (0,) + tuple(range(2, len(shape))), (1, 2) + (1,) * (len(shape) - 2)
        conv = loops(x, w, bias)
        stats = RunningStats(2)
        plain_block(x, w, bias=bias, training=True, stats=stats)
        np.testing.assert_allclose(stats.mean, 0.1 * conv.mean(axis=axes), atol=1e-12)
        np.testing.assert_allclose(stats.var, 0.9 + 0.1 * conv.var(axis=axes), atol=1e-12)
        out = plain_block(x, w, bias=bias, training=False, stats=stats)
        want = (conv - stats.mean.reshape(cshape)) / np.sqrt(stats.var + 1e-5).reshape(cshape)
        np.testing.assert_allclose(unleaky(out), want, atol=1e-12)


class TestActivations:
    def test_leaky_relu_negative_slope(self):
        out = T.leaky_relu(Tensor([-1.0]))
        np.testing.assert_allclose(out.data, [-0.01])

    @staticmethod
    def _leaky_relu_factor_form(x):
        """The factor-lookup leaky_relu that the max form must match byte for byte."""
        return np.multiply(x, np.array([0.01, 1.0])[(x >= 0).view(np.uint8)])

    @pytest.mark.parametrize("shape", [(6, 7), (3, 4, 5), (2, 3, 4, 5)], ids=["2d", "3d", "4d"])
    def test_leaky_relu_is_byte_identical_to_factor_form(self, rng, shape):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308]
        base = rng.uniform(-1, 1, shape)
        base.reshape(-1)[: len(special)] = special
        rng.shuffle(base.reshape(-1))
        for order in ("C", "CM", "F"):
            x = in_layout(base, order)
            g = in_layout(rng.uniform(-1, 1, shape), "C")
            xt = Tensor(x, requires_grad=True)
            with T.recording() as tape:
                out = T.leaky_relu(xt)
            backward_from(tape, out, g)
            want = self._leaky_relu_factor_form(x)
            assert out.data.tobytes() == want.tobytes(), order
            assert out.data.strides == x.strides, order
            assert xt.grad.tobytes() == (g * np.where(x >= 0, 1.0, 0.01)).tobytes(), order

    def test_branch_free_gradient_factor_is_exact(self, rng):
        """``nonneg * (1 - 0.01) + 0.01`` is exactly 0.01 or 1.0, so the
        gradient has the bytes of the old table lookup, in g's layout."""
        shape = (6, 5, 4)
        nonneg = rng.uniform(-1, 1, shape) >= 0
        factor = T._leaky_relu_grad(np.ones(shape), nonneg)
        assert factor.tobytes() == np.where(nonneg, 1.0, 0.01).tobytes()
        base = rng.uniform(-1, 1, shape)
        base.reshape(-1)[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        for g_order in ("C", "CM", "F"):
            for mask_order in ("C", "CM", "F"):
                g, mask = in_layout(base, g_order), in_layout(nonneg, mask_order)
                lookup = np.multiply(g, np.array([0.01, 1.0])[mask.view(np.uint8)])
                got = T._leaky_relu_grad(g, mask)
                assert got.tobytes() == lookup.tobytes(), (g_order, mask_order)
                assert got.strides == g.strides, (g_order, mask_order)

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_log_softmax_no_overflow(self):
        out = T.log_softmax(Tensor([[1000.0, 1000.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[-np.log(2), -np.log(2)]])
        assert np.all(np.isfinite(out.data))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = rt(rng, 3, 4)
        with T.recording() as tape:
            loss = T.sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.recording() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self, rng):
        x = rt(rng, 3)
        with T.recording() as tape:
            out = T.mul(x, x)
        with pytest.raises(DimensionError, match="scalar"):
            tape.backward(out)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            T.Tape().backward(Tensor(0.0))

    def test_tape_cleared_after_backward(self, rng):
        x = rt(rng, 2)
        with T.recording() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        assert len(tape) == 0

    def test_grad_accumulates_over_multiple_uses(self):
        x = Tensor([3.0], requires_grad=True)
        with T.recording() as tape:
            loss = T.sum_all(T.add(T.mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_each_rule_is_popped_before_it_runs(self):
        tape = T.Tape()
        seen = []
        for _ in range(3):
            tape.record(lambda: seen.append(len(tape)))
        tape.backward(Tensor(1.0))
        assert seen == [2, 1, 0]

    def test_backward_frees_as_it_replays(self, monkeypatch, rng):
        """A 3-block conv_block chain whose blocks build im2col matrices of
        at most ~2 activations (``_PIECE_BUDGET``; a whole one is 9
        activations for 3x3 taps). Backward may rise above its starting size
        by less than one whole im2col matrix (8 activations): the popped
        rules free the later blocks' buffers and gradients before the first
        block runs. The whole step, forward and backward, peaks below 14
        activations above its start: 11.1 here, against 34.9 when each block
        kept its whole im2col matrix for its backward."""
        b, c, h = 8, 8, 16
        x = Tensor(rng.uniform(-1, 1, (b, c, h, h)))
        blocks = [(rt(rng, c, c, 3, 3), rt(rng, c), rt(rng, c), rt(rng, c)) for _ in range(3)]
        activation = x.data.nbytes
        monkeypatch.setattr(T, "_PIECE_BUDGET", 2 * x.data.size)
        tracemalloc.start()
        try:
            begin = tracemalloc.get_traced_memory()[0]
            with T.recording() as tape:
                out = x
                for w, bias, gamma, beta in blocks:
                    out = T.conv_block(out, w, bias, gamma, beta, RunningStats(c), True)
                loss = T.sum_all(out)
            del out
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for block in blocks for t in block)
        assert (peak - start) / activation < 8
        assert (max(forward_peak, peak) - begin) / activation < 14


# The nine one-input ops on a (4, 3, 4, 4) input, and whether the op's rule
# reads the input's array (LeakyReLU's reads its sign).
ONE_INPUT_OPS = {
    "reshape": (lambda x: T.reshape(x, (4, 48)), False),
    "transpose": (lambda x: T.transpose(x, (0, 2, 3, 1)), False),
    "mean": (lambda x: T.mean(x, 1), False),
    "sum_all": (T.sum_all, False),
    "pool": (lambda x: T.adaptive_avg_pool(x, (2, 3)), False),
    "pool-copy": (lambda x: T.adaptive_avg_pool(x, (4, 4)), False),
    "leaky_relu": (T.leaky_relu, True),
    "relu": (T.relu, False),
    "sigmoid": (T.sigmoid, False),
    "log_softmax": (lambda x: T.log_softmax(x, 1), False),
}


class TestOneInputOps:
    @pytest.mark.parametrize("name", list(ONE_INPUT_OPS))
    def test_rule_holds_no_input_it_does_not_read(self, rng, name):
        op, reads_input = ONE_INPUT_OPS[name]
        x = rt(rng, 4, 3, 4, 4)
        with T.recording() as tape:
            out = op(x)
        data, sx, so, g = weakref.ref(x.data), x.slot, out.slot, np.ones_like(out.data)
        del x, out
        assert (data() is not None) == reads_input
        tape.record(lambda: setattr(so, "grad", g))
        tape.backward(Tensor(0.0))
        assert sx.grad.shape == (4, 3, 4, 4)


class TestGradientChecks:
    """Central finite differences vs the tape, per op (more shapes in the
    acceptance suite)."""

    def test_matmul(self, rng):
        a, b = rt(rng, 3, 4), rt(rng, 4, 2)
        err = finite_difference_check(
            lambda: random_projection_loss(T.matmul(a, b), np.random.default_rng(0)),
            {"a": a, "b": b},
        )
        assert err < 1e-6

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_conv_block_1d(self, rng, training):
        x, w = rt(rng, 3, 3, 7), rt(rng, 4, 3, 3)
        bias, gamma, beta = rt(rng, 4), rt(rng, 4), rt(rng, 4)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv_block(x, w, bias, gamma, beta, RunningStats(4), training),
                np.random.default_rng(0),
            ),
            {"x": x, "w": w, "bias": bias, "gamma": gamma, "beta": beta},
        )
        assert err < 1e-6

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_conv_block_2d(self, rng, training):
        x, w = rt(rng, 3, 2, 4, 5), rt(rng, 3, 2, 3, 3)
        bias, gamma, beta = rt(rng, 3), rt(rng, 3), rt(rng, 3)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv_block(x, w, bias, gamma, beta, RunningStats(3), training),
                np.random.default_rng(0),
            ),
            {"x": x, "w": w, "bias": bias, "gamma": gamma, "beta": beta},
        )
        assert err < 1e-6

    def test_conv_block_1d_wide_kernel(self, rng):
        x, w = rt(rng, 2, 2, 4), rt(rng, 3, 2, 7)
        bias, gamma, beta = rt(rng, 3), rt(rng, 3), rt(rng, 3)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv_block(x, w, bias, gamma, beta, RunningStats(3), True),
                np.random.default_rng(0),
            ),
            {"x": x, "w": w, "bias": bias, "gamma": gamma, "beta": beta},
        )
        assert err < 1e-6

    def test_conv_block_2d_wide_kernel(self, rng):
        x, w = rt(rng, 2, 2, 6, 5), rt(rng, 3, 2, 5, 5)
        bias, gamma, beta = rt(rng, 3), rt(rng, 3), rt(rng, 3)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv_block(x, w, bias, gamma, beta, RunningStats(3), True),
                np.random.default_rng(0),
            ),
            {"x": x, "w": w, "bias": bias, "gamma": gamma, "beta": beta},
        )
        assert err < 1e-6

    def test_pooling(self, rng):
        x = rt(rng, 2, 3, 10)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.adaptive_avg_pool(x, (3,)), np.random.default_rng(0)
            ),
            {"x": x},
        )
        assert err < 1e-6

    @pytest.mark.parametrize("size", [(3, 4), (7, 4), (3, 9)], ids=["hw", "w-only", "h-only"])
    def test_pooling_2d(self, rng, size):
        x = rt(rng, 2, 2, 7, 9)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.adaptive_avg_pool(x, size), np.random.default_rng(0)
            ),
            {"x": x},
        )
        assert err < 1e-6

    def test_log_softmax(self, rng):
        x = rt(rng, 4, 5)
        err = finite_difference_check(
            lambda: random_projection_loss(T.log_softmax(x, 1), np.random.default_rng(0)),
            {"x": x},
        )
        assert err < 1e-6


class TestNonContiguousInput:
    @pytest.mark.parametrize("shape", [(3, 4, 9), (3, 4, 6, 5)], ids=["1d", "2d"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_conv_block_matches_contiguous_copy(self, rng, shape, training):
        data = rng.uniform(-1, 1, shape[::-1]).T
        assert not data.flags.c_contiguous
        params = [rng.uniform(-1, 1, s) for s in [(5, 4) + (3,) * (len(shape) - 2)] + [(5,)] * 3]
        results = []
        for x in (data, np.ascontiguousarray(data)):
            tensors = [Tensor(v, requires_grad=True) for v in (x, *params)]
            with T.recording() as tape:
                out = T.conv_block(*tensors, RunningStats(5), training)
                loss = random_projection_loss(out, np.random.default_rng(0))
            tape.backward(loss)
            results.append([out.data] + [t.grad for t in tensors])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestLayout:
    """Score bytes depend on the memory layout of intermediate arrays (see
    the tensor module docstring), and a gradient in another layout than its
    block's output costs the next block's rule a full copy."""

    @staticmethod
    def _block(rng, x, cout):
        nd = x.data.ndim - 2
        return (x, rt(rng, cout, x.shape[1], *(3,) * nd), rt(rng, cout), rt(rng, cout), rt(rng, cout))

    @pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_output_is_channel_major(self, rng, ndim, training):
        x = rt(rng, 4, 3, *((12,) if ndim == 1 else (6, 5)))
        y = T.conv_block(*self._block(rng, x, 5), RunningStats(5), training).data
        assert not y.flags.c_contiguous
        assert layout(y) == layout(in_layout(y, "CM"))

    @pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("g_order", ["C", "CM"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_dx_keeps_block_output_layout(self, rng, ndim, g_order, training):
        """In a chain of two blocks, the gradient of the first block's output
        comes back in that output's channel-major layout, and the input's
        gradient in the input's C order, whatever the layout of g."""
        x = rt(rng, 4, 3, *((12,) if ndim == 1 else (6, 5)))
        with T.recording() as tape:
            y = T.conv_block(*self._block(rng, x, 5), RunningStats(5), training)
            out = T.conv_block(*self._block(rng, y, 2), RunningStats(2), training)
        assert not y.data.flags.c_contiguous
        backward_from(tape, out, in_layout(rng.uniform(-1, 1, out.shape), g_order))
        assert y.grad.strides == y.data.strides
        assert x.grad.strides == x.data.strides


class TestDeterminism:
    def test_forward_is_bit_identical(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 8))
        w = rng.uniform(-1, 1, (4, 3, 3))
        b = rng.uniform(-1, 1, 4)
        one, two = (T.conv_block(Tensor(x), Tensor(w), Tensor(b), Tensor(np.ones(4)),
                                 Tensor(b), RunningStats(4), False).data for _ in range(2))
        assert np.array_equal(one, two)

    def test_forward_outputs_finite(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        for op in (T.leaky_relu, T.relu, T.sigmoid):
            assert np.all(np.isfinite(op(x).data))
