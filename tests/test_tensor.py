import tracemalloc

import numpy as np
import pytest

from sasvbackend import oracles
from sasvbackend import tensor as T
from sasvbackend.oracles import finite_difference_check, random_projection_loss
from sasvbackend.tensor import DimensionError, RunningStats, Tensor


def rt(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


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

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_matches_loop_oracle(self, rng, stride, padding):
        x = rng.uniform(-1, 1, (2, 3, 10))
        w = rng.uniform(-1, 1, (4, 3, 3))
        bias = rng.uniform(-1, 1, 4)
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

    # k=5/pad 2 is the models' first layer; k=3/pad 2 has taps that read
    # only padding.
    @pytest.mark.parametrize(
        "stride,padding,k",
        [(1, 0, 3), (1, 1, 3), (2, 1, 3), (1, 2, 5), (1, 2, 3), (2, 0, 3), (2, 2, 5)],
        ids=["1-0", "1-1", "2-1", "1-2-k5", "1-2-k3", "2-0", "2-2-k5"],
    )
    def test_matches_loop_oracle(self, rng, stride, padding, k):
        x = rng.uniform(-1, 1, (2, 3, 6, 5))
        w = rng.uniform(-1, 1, (4, 3, k, k))
        bias = rng.uniform(-1, 1, 4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), stride, padding)
        expected = oracles.conv2d_loops(x, w, bias, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_non_square_kernel_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            T.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 2))), Tensor([0.0]))


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

    def test_batch_of_one_rejected_in_training(self):
        with pytest.raises(DimensionError, match="batch"):
            T.batch_norm(
                Tensor(np.ones((1, 3, 5))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                RunningStats(3), True,
            )


class TestActivations:
    def test_leaky_relu_negative_slope(self):
        out = T.leaky_relu(Tensor([-1.0]), slope=0.01)
        np.testing.assert_allclose(out.data, [-0.01])

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
