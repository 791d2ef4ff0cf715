import numpy as np
import pytest

from sasvbackend import attention as att
from sasvbackend import oracles
from sasvbackend import tensor as T
from sasvbackend.oracles import finite_difference_check, random_projection_loss
from sasvbackend.tensor import Tensor


def make_params(kind, rng, channels, features=None, reduction=2):
    return att.AttentionParams.init(
        kind, rng, channels=channels, features=features, reduction=reduction
    )


def zero_weights(params):
    for w in params.weights.values():
        w.data[:] = 0.0
    return params


def saturate_se_gate(params, magnitude=1e6):
    """Force an SE-style sigmoid gate to 1 for any input whose squeeze sums
    to something nonzero: one bottleneck unit sees +sum, another -sum, and
    both push the output logits far positive."""
    wa = params.weights["wa"]
    wa.data[:] = 0.0
    wa.data[:, 0] = magnitude
    if wa.data.shape[1] > 1:
        wa.data[:, 1] = -magnitude
    for name in ("wb", "wh", "ww"):
        if name in params.weights:
            w = params.weights[name]
            w.data[:] = 0.0
            w.data[0, :] = magnitude
            if w.data.shape[0] > 1:
                w.data[1, :] = magnitude
    return params


class TestParallelAttention:
    def test_zero_input_gives_zero(self, rng):
        params = make_params(att.PA, rng, channels=3, features=5)
        out = att.parallel_attention(Tensor(np.zeros((2, 3, 5))), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 5)))

    def test_zero_weights_quarter_input(self, rng):
        params = zero_weights(make_params(att.PA, rng, channels=3, features=5))
        x = rng.uniform(-1, 1, (2, 3, 5))
        out = att.parallel_attention(Tensor(x), params)
        np.testing.assert_allclose(out.data, 0.25 * x, atol=1e-12)

    def test_matches_loop_reference(self, rng):
        params = make_params(att.PA, rng, channels=4, features=6, reduction=2)
        x = rng.uniform(-1, 1, (3, 4, 6))
        out = att.parallel_attention(Tensor(x), params)
        w = {k: v.data for k, v in params.weights.items()}
        expected = oracles.pa_reference(x, w["w1"], w["w2"], w["w3"], w["w4"])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_batch_permutation_equivariance(self, rng):
        params = make_params(att.PA, rng, channels=3, features=4)
        x = rng.uniform(-1, 1, (5, 3, 4))
        perm = rng.permutation(5)
        base = att.parallel_attention(Tensor(x), params).data
        permuted = att.parallel_attention(Tensor(x[perm]), params).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_single_channel_degenerate_case(self, rng):
        params = make_params(att.PA, rng, channels=1, features=6, reduction=2)
        x = rng.uniform(-1, 1, (2, 1, 6))
        out = att.parallel_attention(Tensor(x), params)
        w = {k: v.data for k, v in params.weights.items()}
        expected = oracles.pa_reference(x, w["w1"], w["w2"], w["w3"], w["w4"])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_weight_shape_mismatch_raises(self, rng):
        params = make_params(att.PA, rng, channels=3, features=5)
        with pytest.raises(T.DimensionError):
            att.parallel_attention(Tensor(np.zeros((2, 4, 5))), params)

    def test_kind_mismatch_raises(self, rng):
        params = make_params(att.SE1D, rng, channels=3)
        with pytest.raises(ValueError, match="expected PA"):
            att.parallel_attention(Tensor(np.zeros((2, 3, 5))), params)


class TestSqueezeExcitation:
    def test_se1d_zero_input(self, rng):
        params = make_params(att.SE1D, rng, channels=3)
        out = att.se_attention(Tensor(np.zeros((2, 3, 5))), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 5)))

    def test_se1d_zero_weights_halve_input(self, rng):
        params = zero_weights(make_params(att.SE1D, rng, channels=3))
        x = rng.uniform(-1, 1, (2, 3, 5))
        out = att.se_attention(Tensor(x), params)
        np.testing.assert_allclose(out.data, 0.5 * x, atol=1e-12)

    def test_se1d_matches_loop_reference(self, rng):
        params = make_params(att.SE1D, rng, channels=5, reduction=2)
        x = rng.uniform(-1, 1, (3, 5, 7))
        out = att.se_attention(Tensor(x), params)
        w = params.weights
        expected = oracles.se1d_reference(x, w["wa"].data, w["wb"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_se2d_zero_input(self, rng):
        params = make_params(att.SE2D, rng, channels=3)
        out = att.se_attention(Tensor(np.zeros((2, 3, 4, 5))), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 4, 5)))

    def test_se2d_saturated_gate_passes_input_through(self, rng):
        params = saturate_se_gate(make_params(att.SE2D, rng, channels=4))
        x = rng.uniform(0.1, 1.0, (2, 4, 3, 3))
        out = att.se_attention(Tensor(x), params)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_se2d_matches_loop_reference(self, rng):
        params = make_params(att.SE2D, rng, channels=4, reduction=2)
        x = rng.uniform(-1, 1, (2, 4, 3, 5))
        out = att.se_attention(Tensor(x), params)
        w = params.weights
        expected = oracles.se2d_reference(x, w["wa"].data, w["wb"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("kind,shape,layout", [
        (att.SE1D, (2, 3, 4, 5), "BxCxF"), (att.SE2D, (2, 3, 5), "BxCxHxW"),
    ])
    def test_wrong_rank_rejected(self, rng, kind, shape, layout):
        params = make_params(kind, rng, channels=3)
        with pytest.raises(T.DimensionError, match=f"{kind} needs {layout} input"):
            att.se_attention(Tensor(np.zeros(shape)), params)

    def test_kind_mismatch_raises(self, rng):
        params = make_params(att.VSE, rng, channels=3)
        with pytest.raises(ValueError, match="expected SE1D or SE2D"):
            att.se_attention(Tensor(np.zeros((2, 3, 4, 5))), params)


class TestVseAttention:
    def test_zero_input(self, rng):
        params = make_params(att.VSE, rng, channels=3)
        out = att.vse_attention(Tensor(np.zeros((2, 3, 4, 5))), params)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 4, 5)))

    def test_saturated_gates_pass_input_through(self, rng):
        params = saturate_se_gate(make_params(att.VSE, rng, channels=4))
        x = rng.uniform(0.1, 1.0, (2, 4, 3, 3))
        out = att.vse_attention(Tensor(x), params)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_matches_loop_reference(self, rng):
        params = make_params(att.VSE, rng, channels=4, reduction=2)
        x = rng.uniform(-1, 1, (2, 4, 3, 5))
        out = att.vse_attention(Tensor(x), params)
        w = params.weights
        expected = oracles.vse_reference(x, w["wa"].data, w["wh"].data, w["ww"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestSharedProperties:
    @pytest.mark.parametrize("kind", [att.PA, att.SE1D, att.SE2D, att.VSE])
    def test_shape_preserved(self, rng, kind):
        shape = (2, 3, 5) if kind in (att.PA, att.SE1D) else (2, 3, 4, 5)
        params = make_params(kind, rng, channels=3, features=5)
        out = att.apply_attention(Tensor(rng.uniform(-1, 1, shape)), params)
        assert out.shape == shape

    @pytest.mark.parametrize("kind", [att.PA, att.SE1D, att.SE2D, att.VSE])
    def test_gates_strictly_contract(self, rng, kind):
        shape = (2, 3, 5) if kind in (att.PA, att.SE1D) else (2, 3, 4, 5)
        params = make_params(kind, rng, channels=3, features=5)
        x = rng.uniform(0.1, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
        out = att.apply_attention(Tensor(x), params)
        assert np.all(np.abs(out.data) < np.abs(x))

    @pytest.mark.parametrize("kind", [att.PA, att.SE1D, att.SE2D, att.VSE])
    def test_gradients_match_finite_differences(self, rng, kind):
        shape = (2, 3, 4) if kind in (att.PA, att.SE1D) else (2, 3, 3, 4)
        params = make_params(kind, rng, channels=3, features=4)
        x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
        tensors = {"x": x, **params.weights}
        err = finite_difference_check(
            lambda: random_projection_loss(
                att.apply_attention(x, params), np.random.default_rng(1)
            ),
            tensors,
        )
        assert err < 1e-6

    def test_reduced_dim_floor(self):
        assert att.reduced_dim(64, 8) == 8
        assert att.reduced_dim(4, 8) == 1
        assert att.reduced_dim(1, 8) == 1

    def test_pa_weight_shapes(self, rng):
        params = make_params(att.PA, rng, channels=64, features=16, reduction=8)
        assert params.weights["w1"].shape == (16, 2)
        assert params.weights["w2"].shape == (2, 16)
        assert params.weights["w3"].shape == (64, 8)
        assert params.weights["w4"].shape == (8, 64)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown attention kind"):
            att.AttentionParams.init("SOFTMAX", rng, channels=4)
