import itertools
import tracemalloc

import numpy as np
import pytest

from sasvbackend import oracles
from sasvbackend import tensor as T
from sasvbackend.oracles import finite_difference_check, random_projection_loss
from sasvbackend.tensor import DimensionError, RunningStats, Tensor


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


# (stride, padding, k) cases checked against the loop oracles. With k=3 and
# padding 2, the first and last taps read only padding.
CONV1D_CASES = [(1, 0, 3), (1, 1, 3), (2, 1, 3), (3, 2, 3), (1, 2, 5), (1, 2, 3), (2, 2, 5)]
CONV1D_IDS = ["1-0", "1-1", "2-1", "3-2", "1-2-k5", "1-2-k3", "2-2-k5"]
CONV2D_CASES = [(1, 0, 3), (1, 1, 3), (2, 1, 3), (1, 2, 5), (1, 2, 3), (2, 0, 3), (2, 2, 5)]
CONV2D_IDS = ["1-0", "1-1", "2-1", "1-2-k5", "1-2-k3", "2-0", "2-2-k5"]


def conv_case(rng, ndim, k):
    """Input, weight and bias for one oracle case (BxCinx10 or BxCinx6x5)."""
    x = rng.uniform(-1, 1, (2, 3, 10) if ndim == 1 else (2, 3, 6, 5))
    w = rng.uniform(-1, 1, (4, 3) + (k,) * ndim)
    return x, w, rng.uniform(-1, 1, 4)


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor([[[1.0, 2.0, 3.0]]])
        w = Tensor([[[1.0]]])
        out = T.conv1d(x, w, Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0]]])

    def test_zero_kernel_same_padding(self):
        x = Tensor([[[1.0, 2.0, 3.0]]])
        w = Tensor([[[0.0, 0.0, 0.0]]])
        out = T.conv1d(x, w, Tensor([0.0]), padding=1)
        np.testing.assert_array_equal(out.data, [[[0.0, 0.0, 0.0]]])

    @pytest.mark.parametrize("stride,padding,k", CONV1D_CASES, ids=CONV1D_IDS)
    def test_matches_loop_oracle(self, rng, stride, padding, k):
        x, w, bias = conv_case(rng, 1, k)
        out = T.conv1d(Tensor(x), Tensor(w), Tensor(bias), stride, padding)
        expected = oracles.conv1d_loops(x, w, bias, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_kernel_too_long(self):
        with pytest.raises(DimensionError):
            T.conv1d(Tensor(np.ones((1, 1, 3))), Tensor(np.ones((1, 1, 5))), Tensor([0.0]))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel"):
            T.conv1d(Tensor(np.ones((1, 2, 5))), Tensor(np.ones((1, 3, 3))), Tensor([0.0]))


class TestConv2d:
    def test_identity_kernel(self, rng):
        img = rng.uniform(-1, 1, (1, 1, 4, 4))
        out = T.conv2d(Tensor(img), Tensor(np.ones((1, 1, 1, 1))), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, img)

    def test_all_ones_kernel_sums(self):
        out = T.conv2d(
            Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0])
        )
        np.testing.assert_array_equal(out.data, [[[[9.0]]]])

    # k=5/pad 2 is the models' first layer.
    @pytest.mark.parametrize("stride,padding,k", CONV2D_CASES, ids=CONV2D_IDS)
    def test_matches_loop_oracle(self, rng, stride, padding, k):
        x, w, bias = conv_case(rng, 2, k)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), stride, padding)
        expected = oracles.conv2d_loops(x, w, bias, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_non_square_kernel_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            T.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 2))), Tensor([0.0]))


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


class TestIm2colIsFullyWritten:
    """``_conv`` takes its im2col buffer from ``np.empty`` and zeroes only the
    strips that each tap's copy leaves out. With every uninitialised array
    filled with NaN, any position left unwritten would poison the output.
    Each case runs on a C-ordered input (read through a flat copy of each
    channel block where the conv keeps its size) and on a channel-major one
    (a conv's output, read in place)."""

    @staticmethod
    def _run(op, x, w, bias, stride, padding):
        tensors = [Tensor(v, requires_grad=True) for v in (x, w, bias)]
        with T.recording() as tape:
            out = op(*tensors, stride, padding)
            loss = random_projection_loss(out, np.random.default_rng(0))
        tape.backward(loss)
        return [out.data] + [t.grad for t in tensors]

    @pytest.mark.parametrize("ndim,stride,padding,k",
                             [(1, *c) for c in CONV1D_CASES] + [(2, *c) for c in CONV2D_CASES],
                             ids=[f"1d-{i}" for i in CONV1D_IDS] + [f"2d-{i}" for i in CONV2D_IDS])
    def test_matches_oracle_with_nan_filled_buffers(self, rng, monkeypatch, ndim, stride, padding, k):
        x, w, bias = conv_case(rng, ndim, k)
        op, loops = (T.conv1d, oracles.conv1d_loops) if ndim == 1 else (T.conv2d, oracles.conv2d_loops)
        expected = loops(x, w, bias, stride, padding)
        inputs = [in_layout(x, order) for order in ("C", "CM")]
        clean = [self._run(op, xi, w, bias, stride, padding) for xi in inputs]
        fill_empty_with_nan(monkeypatch)
        for xi, want_all in zip(inputs, clean):
            dirty = self._run(op, xi, w, bias, stride, padding)
            np.testing.assert_allclose(dirty[0], expected, atol=1e-12)
            for got, want in zip(dirty, want_all):
                assert got.tobytes() == want.tobytes()


def im2col_reference(x, k, stride, padding):
    """The im2col matrix as ``_conv_forward`` lays it out, (Cin, taps, B,
    *outs) with taps in row-major kernel order, cut from ``np.pad``."""
    nd = x.ndim - 2
    xp = np.pad(x, [(0, 0)] * 2 + [(padding, padding)] * nd)
    outs = [(n + 2 * padding - k) // stride + 1 for n in x.shape[2:]]
    taps = [
        xp[(slice(None),) * 2 + tuple(slice(o, o + stride * (m - 1) + 1, stride)
                                      for o, m in zip(offs, outs))]
        for offs in itertools.product(range(k), repeat=nd)
    ]
    return np.stack(taps).transpose((2, 0, 1) + tuple(range(3, x.ndim + 1)))


def col2im_reference(dcols, x_shape, k, stride, padding):
    """dx of ``dcols`` (Cin, taps, B, *outs): each tap added into a zero
    padded buffer in tap order, then the padding cut off."""
    nd = len(x_shape) - 2
    outs = dcols.shape[3:]
    dxp = np.zeros(x_shape[:2] + tuple(n + 2 * padding for n in x_shape[2:]))
    for t, offs in enumerate(itertools.product(range(k), repeat=nd)):
        win = (slice(None),) * 2 + tuple(slice(o, o + stride * (m - 1) + 1, stride)
                                         for o, m in zip(offs, outs))
        dxp[win] += dcols[:, t].transpose((1, 0) + tuple(range(2, nd + 2)))
    return dxp[(slice(None),) * 2 + tuple(slice(padding, padding + n) for n in x_shape[2:])]


# Every CONV case on a 10-long or 6x5 input, and stride-1 same-size cases on
# inputs no wider than the padding (each shifted run reaches past the whole
# batch) and on inputs of a few channel blocks.
KERNEL_CASES = (
    [((2, 3, 10), *c) for c in CONV1D_CASES] + [((2, 3, 6, 5), *c) for c in CONV2D_CASES]
    + [((3, 2, 1), 1, 2, 5), ((1, 3, 2), 1, 2, 5), ((1, 2, 1, 2), 1, 2, 5),
       ((8, 5, 2048), 1, 1, 3), ((4, 5, 48, 48), 1, 1, 3)]
)


def kernel_case_id(case):
    shape, stride, padding, k = case
    return f"{len(shape) - 2}d-{'x'.join(map(str, shape))}-s{stride}p{padding}k{k}"


class TestIm2colKernel:
    """Bytes of the im2col matrix and of col2im's dx against references that
    pad the input. Where the conv keeps its size at stride 1, each tap is one
    shifted run, read in place from a channel-major input, whose batch and
    spatial axes merge, and through a flat copy of each channel block from a
    C- or Fortran-ordered one; other convs copy one window per tap."""

    @staticmethod
    def _setup(rng, case, order):
        shape, stride, padding, k = case
        x = in_layout(rng.uniform(-1, 1, shape), order)
        outs = tuple((n + 2 * padding - k) // stride + 1 for n in shape[2:])
        return x, outs, T._plan(list(shape[2:]), outs, k, stride, padding)

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

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=kernel_case_id)
    @pytest.mark.parametrize("order", ["C", "CM", "F"])
    def test_im2col_matches_padded_windows(self, rng, case, order):
        shape, stride, padding, k = case
        x, outs, plan = self._setup(rng, case, order)
        w = rng.uniform(-1, 1, (2, shape[1]) + (k,) * len(outs))
        _, cols, _ = T._conv_forward(x, w, stride, padding, outs)
        want = im2col_reference(x, k, stride, padding)
        assert cols.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=kernel_case_id)
    @pytest.mark.parametrize("order", ["C", "CM", "F"])
    @pytest.mark.parametrize("fill", ["uniform", "negative-zero"])
    def test_col2im_matches_padded_buffer(self, rng, case, order, fill):
        """Where a shifted run wraps, col2im adds a zeroed dcols entry; with
        every dcols entry -0.0, dx must still be +0.0 everywhere."""
        shape, stride, padding, k = case
        x, outs, plan = self._setup(rng, case, order)
        dcols = (rng.uniform(-1, 1, (shape[1], len(plan), shape[0]) + outs)
                 if fill == "uniform" else np.full((shape[1], len(plan), shape[0]) + outs, -0.0))
        want = col2im_reference(dcols, shape, k, stride, padding)
        dx = np.zeros_like(x)
        T._im2col(dx.transpose(T._cm(dx.ndim)), dcols.copy(), plan, add=True)
        assert np.ascontiguousarray(dx).tobytes() == np.ascontiguousarray(want).tobytes()


class TestAdaptivePool:
    def test_halving(self):
        out = T.adaptive_avg_pool1d(Tensor([[[1.0, 2.0, 3.0, 4.0]]]), 2)
        np.testing.assert_array_equal(out.data, [[[1.5, 3.5]]])

    def test_same_size_is_identity(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 7))
        out = T.adaptive_avg_pool1d(Tensor(x), 7)
        np.testing.assert_array_equal(out.data, x)

    def test_uneven_bins_match_oracle(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 10))
        out = T.adaptive_avg_pool1d(Tensor(x), 3)
        np.testing.assert_allclose(out.data, oracles.adaptive_pool1d_loops(x, 3), atol=1e-12)

    def test_2d_matches_oracle(self, rng):
        x = rng.uniform(-1, 1, (2, 2, 7, 9))
        out = T.adaptive_avg_pool2d(Tensor(x), (3, 4))
        np.testing.assert_allclose(
            out.data, oracles.adaptive_pool2d_loops(x, 3, 4), atol=1e-12
        )

    @pytest.mark.parametrize("size", [(7, 4), (3, 9), (7, 9)], ids=["w-only", "h-only", "same"])
    def test_2d_pools_only_changed_axes(self, rng, size):
        x = rng.uniform(-1, 1, (2, 2, 7, 9))
        out = T.adaptive_avg_pool2d(Tensor(x), size)
        np.testing.assert_allclose(out.data, oracles.adaptive_pool2d_loops(x, *size), atol=1e-12)

    @pytest.mark.parametrize("size", [0, 11])
    def test_bad_output_size(self, size):
        with pytest.raises(DimensionError):
            T.adaptive_avg_pool1d(Tensor(np.ones((1, 1, 10))), size)

    @pytest.mark.parametrize("size", [(0, 3), (3, 0), (7, 3), (3, 6)],
                             ids=["h-zero", "w-zero", "h-too-big", "w-too-big"])
    def test_bad_output_size_2d(self, size):
        with pytest.raises(DimensionError, match="invalid for input size 6x5"):
            T.adaptive_avg_pool2d(Tensor(np.ones((1, 1, 6, 5))), size)


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((4, 3, 5), 2.5))
        out = T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), RunningStats(3), True)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3, 5)))

    def test_zero_gamma_gives_beta(self, rng):
        x = Tensor(rng.uniform(-1, 1, (4, 3, 5)))
        beta = np.array([1.0, -2.0, 0.5])
        out = T.batch_norm(x, Tensor(np.zeros(3)), Tensor(beta), RunningStats(3), True)
        np.testing.assert_array_equal(out.data, np.broadcast_to(beta[None, :, None], (4, 3, 5)))

    def test_normalizes_moments(self, rng):
        x = rng.uniform(-1, 1, (8, 4, 6, 6))
        out = T.batch_norm(
            Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), RunningStats(4), True
        )
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        batch_var = x.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-9
        # output variance is batch_var/(batch_var+eps), i.e. 1 up to the eps shrinkage
        np.testing.assert_allclose(var, batch_var / (batch_var + 1e-5), atol=1e-6)

    def test_running_stats_and_eval_mode(self, rng):
        x = rng.uniform(-1, 1, (6, 3, 4))
        stats = RunningStats(3)
        T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, True)
        np.testing.assert_allclose(stats.mean, 0.1 * x.mean(axis=(0, 2)))
        np.testing.assert_allclose(stats.var, 0.9 + 0.1 * x.var(axis=(0, 2)))
        out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, False)
        expected = (x - stats.mean[None, :, None]) / np.sqrt(stats.var + 1e-5)[None, :, None]
        np.testing.assert_allclose(out.data, expected)

    @staticmethod
    def _whole_array(x, gamma, beta, mean, var, training, g, momentum=0.1, eps=1e-5):
        """The whole-array batch norm that the blocked one must match byte for
        byte: output, running mean and variance, and dx, dgamma, dbeta."""
        c = x.shape[1]
        axes = (0,) + tuple(range(2, x.ndim))
        cshape = (1, c) + (1,) * (x.ndim - 2)
        if training:
            mu = x.mean(axis=axes)
            xhat = x - mu.reshape(cshape)
            batch_var = (xhat * xhat).sum(axis=axes) / (x.size // c)
            mean = (1.0 - momentum) * mean + momentum * mu
            var, batch_var = (1.0 - momentum) * var + momentum * batch_var, batch_var
        else:
            batch_var = var
            xhat = x - mean.reshape(cshape)
        inv = 1.0 / np.sqrt(batch_var + eps)
        xhat *= inv.reshape(cshape)
        out = gamma.reshape(cshape) * xhat
        out += beta.reshape(cshape)
        gg = g * gamma.reshape(cshape)
        if training:
            mean_gg = gg.mean(axis=axes).reshape(cshape)
            mean_ggx = (gg * xhat).mean(axis=axes).reshape(cshape)
            dx = inv.reshape(cshape) * (gg - mean_gg - xhat * mean_ggx)
        else:
            dx = gg * inv.reshape(cshape)
        return out, mean, var, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    # 16384 elements per channel give blocks of two channels: 3 channels run
    # as one block of 3 and 5 as 2+3 (a trailing single channel joins the
    # block before it). 10240 per channel give blocks of three, so 7 runs as
    # 3+4. Channel counts 1 and 2 are one block.
    @pytest.mark.parametrize("shape", [(8, 1, 2048), (8, 2, 2048), (8, 3, 2048), (8, 5, 2048),
                                       (4, 5, 64, 64), (8, 7, 1280), (16384, 3), (4, 3, 5)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_blocked_is_byte_identical_to_whole_array(self, rng, shape, training):
        c = shape[1]
        base, upstream = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-1, 1, c)
        mean, var = rng.uniform(-0.1, 0.1, c), rng.uniform(0.5, 1.5, c)
        for x_order in ("C", "CM", "F"):
            for g_order in ("C", "CM"):
                x, g = in_layout(base, x_order), in_layout(upstream, g_order)
                want = self._whole_array(x, gamma, beta, mean, var, training, g)
                stats = RunningStats(c)
                stats.mean, stats.var = mean.copy(), var.copy()
                tensors = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
                with T.recording() as tape:
                    out = T.batch_norm(*tensors, stats, training)
                backward_from(tape, out, g)
                got = (out.data, stats.mean, stats.var) + tuple(t.grad for t in tensors)
                case = f"x {x_order}, g {g_order}"
                for name, a, b in zip(("out", "mean", "var", "dx", "dgamma", "dbeta"), got, want):
                    assert a.tobytes() == b.tobytes(), f"{name} bytes differ ({case})"
                assert layout(out.data) == layout(want[0]), case
                assert layout(tensors[0].grad) == layout(x), case

    def test_channel_blocks(self):
        assert T._channel_blocks(1, 16384) == [slice(0, 1)]
        assert T._channel_blocks(5, 16384) == [slice(0, 2), slice(2, 5)]
        assert T._channel_blocks(6, 16384) == [slice(0, 2), slice(2, 4), slice(4, 6)]
        assert T._channel_blocks(7, 10240) == [slice(0, 3), slice(3, 7)]
        assert T._channel_blocks(9, 100) == [slice(0, 9)]
        assert T._channel_blocks(4, 10**6) == [slice(0, 2), slice(2, 4)]

    def test_batch_of_one_rejected_in_training(self):
        with pytest.raises(DimensionError, match="batch"):
            T.batch_norm(
                Tensor(np.ones((1, 3, 5))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                RunningStats(3), True,
            )


def unfused_block(x, w, bias, gamma, beta, stats, training, padding):
    """The three public ops that ``conv_block`` fuses."""
    conv = T.conv1d if x.data.ndim == 3 else T.conv2d
    return T.leaky_relu(T.batch_norm(conv(x, w, bias, 1, padding), gamma, beta, stats, training))


# (input shape, output channels, kernel, padding). 16384 elements per output
# channel give channel blocks of two: 5 channels run as 2+3 and 7 as 2+2+3;
# 10240 per channel give blocks of three, so 7 runs as 3+4.
BLOCK_CASES = (
    [((8, 2, 2048), c, 3, 1) for c in (1, 2, 3, 5, 7)]
    + [((4, 2, 64, 64), c, 3, 1) for c in (1, 2, 3, 5, 7)]
    + [((8, 2, 1280), 7, 3, 1), ((2, 3, 6, 5), 4, 5, 2)]
)


def block_case_id(case):
    shape, cout, k, padding = case
    return f"{len(shape) - 2}d-{'x'.join(map(str, shape))}-c{cout}-k{k}p{padding}"


class TestConvBlock:
    @staticmethod
    def _arrays(rng, shape, cout, k):
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

    @staticmethod
    def _run(op, arrays, training, padding, g):
        """Output, running stats and the x/w/bias/gamma/beta gradients of
        ``op`` given the output gradient ``g`` (every case keeps the size)."""
        stats = RunningStats(len(arrays["mean"]))
        stats.mean, stats.var = arrays["mean"].copy(), arrays["var"].copy()
        tensors = [Tensor(arrays[k], requires_grad=True) for k in ("x", "w", "bias", "gamma", "beta")]
        with T.recording() as tape:
            out = op(*tensors, stats, training, padding)
        backward_from(tape, out, g)
        return [out.data, stats.mean, stats.var] + [t.grad for t in tensors]

    @staticmethod
    def _out_shape(arrays):
        return (arrays["x"].shape[0], len(arrays["bias"])) + arrays["x"].shape[2:]

    NAMES = ("out", "running mean", "running var", "dx", "dw", "dbias", "dgamma", "dbeta")

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=block_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_matches_unfused_ops_byte_for_byte(self, rng, case, training):
        shape, cout, k, padding = case
        arrays = self._arrays(rng, shape, cout, k)
        upstream = rng.uniform(-1, 1, self._out_shape(arrays))
        for g_order in ("C", "CM"):
            g = in_layout(upstream, g_order)
            want = self._run(unfused_block, arrays, training, padding, g)
            got = self._run(T.conv_block, arrays, training, padding, g)
            for name, a, b in zip(self.NAMES, got, want):
                assert a.tobytes() == b.tobytes(), f"{name} bytes differ (g {g_order})"
            assert layout(got[0]) == layout(want[0])
            assert layout(got[3]) == layout(want[3])

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_factor_follows_batch_norm_output_not_activation(self, rng, training):
        """With gamma 0 and beta -5e-324 the batch-norm output is -5e-324, so
        the LeakyReLU factor is the slope; but 0.01 * -5e-324 underflows to
        -0.0, so the activation is -0.0 and reads as >= 0. A backward that took
        the factor from the activation would give dbeta = sum(g), not
        0.01 * sum(g)."""
        arrays = self._arrays(rng, (3, 2, 8), 3, 3)
        arrays["gamma"], arrays["beta"] = np.zeros(3), np.full(3, -5e-324)
        g = np.ones(self._out_shape(arrays))
        got = self._run(T.conv_block, arrays, training, 1, g)
        assert np.all(got[0] == 0.0) and np.all(np.signbit(got[0]))
        want = self._run(unfused_block, arrays, training, 1, g)
        for name, a, b in zip(self.NAMES, got, want):
            assert a.tobytes() == b.tobytes(), f"{name} bytes differ"
        np.testing.assert_array_equal(got[-1], np.full(3, 0.01 * 24))

    @pytest.mark.parametrize("case", [BLOCK_CASES[3], BLOCK_CASES[9], BLOCK_CASES[-1]],
                             ids=block_case_id)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_every_empty_buffer_is_fully_written(self, rng, monkeypatch, case, training):
        shape, cout, k, padding = case
        arrays = self._arrays(rng, shape, cout, k)
        g = rng.uniform(-1, 1, self._out_shape(arrays))
        clean = self._run(T.conv_block, arrays, training, padding, g)
        fill_empty_with_nan(monkeypatch)
        dirty = self._run(T.conv_block, arrays, training, padding, g)
        for name, a, b in zip(self.NAMES, dirty, clean):
            assert a.tobytes() == b.tobytes(), f"{name} bytes differ"

    def test_records_one_rule(self, rng):
        x, w, bias, gamma, beta = rt(rng, 2, 3, 5, 5), rt(rng, 4, 3, 3, 3), rt(rng, 4), rt(rng, 4), rt(rng, 4)
        with T.recording() as tape:
            T.conv_block(x, w, bias, gamma, beta, RunningStats(4), True, 1)
        assert len(tape) == 1
        with T.recording() as tape:
            T.conv_block(*(Tensor(t.data) for t in (x, w, bias, gamma, beta)),
                         RunningStats(4), True, 1)
        assert len(tape) == 0

    def test_recorded_chain_holds_two_activations_per_block_less(self, rng):
        """A recorded 3-block chain, as the unfused ops and as conv_block: the
        unfused chain keeps each block's conv output, xhat, batch-norm output
        and LeakyReLU output; conv_block keeps xhat and its output."""
        b, c, h = 8, 8, 16
        x = Tensor(rng.uniform(-1, 1, (b, c, h, h)))
        blocks = [(rt(rng, c, c, 3, 3), rt(rng, c), rt(rng, c), rt(rng, c)) for _ in range(3)]
        held = []
        for op in (unfused_block, T.conv_block):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                with T.recording() as tape:
                    out = x
                    for w, bias, gamma, beta in blocks:
                        out = op(out, w, bias, gamma, beta, RunningStats(c), True, 1)
                del out
                held.append(tracemalloc.get_traced_memory()[0] - start)
            finally:
                tracemalloc.stop()
            del tape
        assert (held[0] - held[1]) / x.data.nbytes >= 2 * len(blocks)

    @pytest.mark.parametrize("bad, match", [
        ({"x": (2, 3, 5, 5, 5)}, "conv2d needs"),
        ({"gamma": (5,)}, "gamma/beta"),
        ({"x": (1, 3, 5, 5)}, "batch >= 2"),
        ({"w": (4, 2, 3, 3)}, "channel mismatch"),
    ], ids=["rank", "gamma", "batch", "channels"])
    def test_shapes_are_checked(self, bad, match):
        shapes = {"x": (2, 3, 5, 5), "w": (4, 3, 3, 3), "bias": (4,), "gamma": (4,), "beta": (4,)}
        shapes.update(bad)
        ts = [Tensor(np.ones(shapes[k])) for k in ("x", "w", "bias", "gamma", "beta")]
        with pytest.raises(DimensionError, match=match):
            T.conv_block(*ts, RunningStats(4), True, 1)


class TestActivations:
    def test_leaky_relu_negative_slope(self):
        out = T.leaky_relu(Tensor([-1.0]), slope=0.01)
        np.testing.assert_allclose(out.data, [-0.01])

    @staticmethod
    def _leaky_relu_factor_form(x, slope):
        """The factor-lookup leaky_relu that the max form must match byte for byte."""
        return np.multiply(x, np.array([slope, 1.0])[(x >= 0).view(np.uint8)])

    @pytest.mark.parametrize("shape", [(6, 7), (3, 4, 5), (2, 3, 4, 5)], ids=["2d", "3d", "4d"])
    @pytest.mark.parametrize("slope", [0.01, 0.5, 1.0])
    def test_leaky_relu_is_byte_identical_to_factor_form(self, rng, shape, slope):
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
                out = T.leaky_relu(xt, slope)
            backward_from(tape, out, g)
            want = self._leaky_relu_factor_form(x, slope)
            assert out.data.tobytes() == want.tobytes(), order
            assert out.data.strides == x.strides, order
            assert xt.grad.tobytes() == (g * np.where(x >= 0, 1.0, slope)).tobytes(), order

    @pytest.mark.parametrize("slope", [0.0, -0.01, 1.5, np.nan, np.inf])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        # At slope 0 the max form would give max(+inf, inf*0) = NaN.
        with pytest.raises(ValueError, match="slope"):
            T.leaky_relu(Tensor([1.0, -1.0]), slope)

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

    def test_backward_frees_as_it_replays(self, rng):
        """A 3-block conv2d -> batch_norm -> leaky_relu chain. Each conv keeps
        an im2col buffer of 9 activations (3x3 taps); backward may rise above
        its starting size by less than one such buffer (8 activations). That
        needs both the popped rules (the later blocks' buffers and gradients
        are gone before the first block runs) and dcols written into cols.
        Keeping every rule alive rose by 17.5 activations, popping alone by
        10.5, popping with the reused buffer by 4.5."""
        b, c, h = 8, 8, 16
        x = Tensor(rng.uniform(-1, 1, (b, c, h, h)))
        blocks = [(rt(rng, c, c, 3, 3), rt(rng, c), rt(rng, c), rt(rng, c)) for _ in range(3)]
        activation = x.data.nbytes
        tracemalloc.start()
        try:
            with T.recording() as tape:
                out = x
                for w, bias, gamma, beta in blocks:
                    out = T.conv2d(out, w, bias, 1, 1)
                    out = T.leaky_relu(T.batch_norm(out, gamma, beta, RunningStats(c), True))
                loss = T.sum_all(out)
            del out
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for block in blocks for t in block)
        assert (peak - start) / activation < 8


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

    def test_conv1d(self, rng):
        x, w, b = rt(rng, 2, 3, 7), rt(rng, 4, 3, 3), rt(rng, 4)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv1d(x, w, b, 1, 1), np.random.default_rng(0)
            ),
            {"x": x, "w": w, "b": b},
        )
        assert err < 1e-6

    def test_conv1d_strided(self, rng):
        x, w, b = rt(rng, 2, 3, 7), rt(rng, 4, 3, 3), rt(rng, 4)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv1d(x, w, b, 2, 2), np.random.default_rng(0)
            ),
            {"x": x, "w": w, "b": b},
        )
        assert err < 1e-6

    def test_conv2d_wide_kernel(self, rng):
        x, w, b = rt(rng, 2, 2, 6, 5), rt(rng, 3, 2, 5, 5), rt(rng, 3)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv2d(x, w, b, 1, 2), np.random.default_rng(0)
            ),
            {"x": x, "w": w, "b": b},
        )
        assert err < 1e-6

    def test_conv2d_strided(self, rng):
        x, w, b = rt(rng, 2, 2, 6, 6), rt(rng, 3, 2, 3, 3), rt(rng, 3)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.conv2d(x, w, b, 2, 1), np.random.default_rng(0)
            ),
            {"x": x, "w": w, "b": b},
        )
        assert err < 1e-6

    def test_batch_norm_training(self, rng):
        x, gamma, beta = rt(rng, 5, 3, 4), rt(rng, 3), rt(rng, 3)
        stats = RunningStats(3)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.batch_norm(x, gamma, beta, stats.copy(), True),
                np.random.default_rng(0),
            ),
            {"x": x, "gamma": gamma, "beta": beta},
        )
        assert err < 1e-6

    def test_pooling(self, rng):
        x = rt(rng, 2, 3, 10)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.adaptive_avg_pool1d(x, 3), np.random.default_rng(0)
            ),
            {"x": x},
        )
        assert err < 1e-6

    @pytest.mark.parametrize("size", [(3, 4), (7, 4), (3, 9)], ids=["hw", "w-only", "h-only"])
    def test_pooling_2d(self, rng, size):
        x = rt(rng, 2, 2, 7, 9)
        err = finite_difference_check(
            lambda: random_projection_loss(
                T.adaptive_avg_pool2d(x, size), np.random.default_rng(0)
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
    @pytest.mark.parametrize("op", ["conv1d", "conv2d", "batch_norm"])
    def test_matches_contiguous_copy(self, rng, op):
        shape, param_shapes, apply = {
            "conv1d": ((3, 4, 9), [(5, 4, 3), (5,)], lambda x, w, b: T.conv1d(x, w, b, 2, 1)),
            "conv2d": ((3, 4, 6, 5), [(5, 4, 3, 3), (5,)], lambda x, w, b: T.conv2d(x, w, b, 1, 1)),
            "batch_norm": (
                (5, 4, 6, 3),
                [(4,), (4,)],
                lambda x, g, b: T.batch_norm(x, g, b, RunningStats(4), True),
            ),
        }[op]
        data = rng.uniform(-1, 1, shape[::-1]).T
        assert not data.flags.c_contiguous
        params = [rng.uniform(-1, 1, s) for s in param_shapes]
        results = []
        for x in (data, np.ascontiguousarray(data)):
            tensors = [Tensor(v, requires_grad=True) for v in (x, *params)]
            with T.recording() as tape:
                out = apply(*tensors)
                loss = random_projection_loss(out, np.random.default_rng(0))
            tape.backward(loss)
            results.append([out.data] + [t.grad for t in tensors])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestLayout:
    """Score bytes depend on the memory layout of intermediate arrays (see
    the tensor module docstring), and a gradient in another layout than its
    conv output costs the conv's rule a full copy."""

    @pytest.mark.parametrize("ndim", [1, 2], ids=["conv1d", "conv2d"])
    @pytest.mark.parametrize("g_order", ["C", "CM"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batch_norm_dx_keeps_conv_output_layout(self, rng, ndim, g_order, training):
        spatial = (12,) if ndim == 1 else (6, 5)
        x, w, bias = rt(rng, 4, 3, *spatial), rt(rng, 5, 3, *(3,) * ndim), rt(rng, 5)
        gamma, beta = rt(rng, 5), rt(rng, 5)
        conv = T.conv1d if ndim == 1 else T.conv2d
        with T.recording() as tape:
            y = conv(x, w, bias, 1, 1)
            out = T.batch_norm(y, gamma, beta, RunningStats(5), training)
        assert not y.data.flags.c_contiguous
        backward_from(tape, out, in_layout(rng.uniform(-1, 1, out.shape), g_order))
        assert y.grad.strides == y.data.strides

    @pytest.mark.parametrize("ndim", [1, 2], ids=["conv1d", "conv2d"])
    def test_leaky_relu_keeps_conv_output_layout(self, rng, ndim):
        spatial = (12,) if ndim == 1 else (6, 5)
        conv = T.conv1d if ndim == 1 else T.conv2d
        y = conv(rt(rng, 4, 3, *spatial), rt(rng, 5, 3, *(3,) * ndim), rt(rng, 5), 1, 1)
        assert not y.data.flags.c_contiguous
        assert T.leaky_relu(y).data.strides == y.data.strides


class TestDeterminism:
    def test_forward_is_bit_identical(self, rng):
        x = rng.uniform(-1, 1, (2, 3, 8))
        w = rng.uniform(-1, 1, (4, 3, 3))
        b = rng.uniform(-1, 1, 4)
        one = T.conv1d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        two = T.conv1d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        assert np.array_equal(one, two)

    def test_forward_outputs_finite(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        for op in (T.leaky_relu, T.relu, T.sigmoid):
            assert np.all(np.isfinite(op(x).data))
