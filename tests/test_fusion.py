import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st

from sasvbackend import fusion, oracles
from sasvbackend.data import EmbeddingStore, Trial, compile_trials


def fuse_one(mode, enroll, test, cm):
    """Fuse one trial through a store: each enroll vector is its own
    utterance, test and cm belong to the test utterance."""
    test, cm = np.asarray(test, float), np.asarray(cm, float)
    store = EmbeddingStore(test.size, cm.size)
    enroll_ids = tuple(f"e{i}" for i in range(len(enroll)))
    for uid, vec in zip(enroll_ids, enroll):
        store.add(uid, spk=np.asarray(vec, float))
    store.add("t", spk=test, cm=cm)
    rows = compile_trials(store, [Trial(enroll_ids, "t", "target")])
    return fusion.fuse_batch(store, rows, mode)[0]


def random_store(rng, n, d, q):
    store = EmbeddingStore(d, q)
    for i in range(n):
        store.add(f"u{i}", spk=rng.normal(size=d), cm=rng.normal(size=q))
    return store


finite_vec = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=64
)


class TestConcat:
    def test_scalars(self):
        out = fuse_one(fusion.CONCAT, [[1.0]], [2.0], [3.0])
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_mixed_lengths(self):
        out = fuse_one(fusion.CONCAT, [[1, 2]], [3, 4], [5])
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5])

    def test_challenge_dims_give_544(self, rng):
        out = fuse_one(fusion.CONCAT, [rng.normal(size=192)], rng.normal(size=192),
                       rng.normal(size=160))
        assert out.shape == (544,)

    def test_empty_embedding_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingStore(1, 1).add("u1", spk=np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingStore(1, 1).add("u1", spk=np.array([np.nan]))


class TestPadToCommon:
    """Right zero-padding to D = max(d, q), read off the stack1d channels."""

    def test_pads_shortest(self):
        a, b, c = fuse_one(fusion.STACK1D, [[1, 2]], [3, 4], [5])
        np.testing.assert_array_equal(a, [1, 2])
        np.testing.assert_array_equal(b, [3, 4])
        np.testing.assert_array_equal(c, [5, 0])

    def test_equal_lengths_unchanged(self, rng):
        vecs = [rng.normal(size=7) for _ in range(3)]
        out = fuse_one(fusion.STACK1D, [vecs[0]], vecs[1], vecs[2])
        for given_v, padded in zip(vecs, out):
            np.testing.assert_array_equal(given_v, padded)

    def test_challenge_dims_pad_cm_by_32(self, rng):
        _, _, c = fuse_one(fusion.STACK1D, [rng.normal(size=192)], rng.normal(size=192),
                           rng.normal(size=160))
        assert c.shape == (192,)
        np.testing.assert_array_equal(c[160:], np.zeros(32))

    @given(d=st.integers(1, 64), q=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_common_length_is_max(self, d, q):
        out = fuse_one(fusion.STACK1D, [np.ones(d)], np.ones(d), np.ones(q))
        assert out.shape == (3, max(d, q))
        np.testing.assert_array_equal(out[:, : min(d, q)], 1.0)
        np.testing.assert_array_equal(out[0 if d < q else 2, min(d, q):], 0.0)


class TestCirculant:
    def test_three_elements(self):
        np.testing.assert_array_equal(
            fusion.circulant(np.array([1.0, 2.0, 3.0])),
            [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
        )

    def test_singleton(self):
        np.testing.assert_array_equal(fusion.circulant(np.array([7.0])), [[7.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fusion.circulant(np.array([]))

    def test_rows_are_index_formula(self, rng):
        v = rng.normal(size=8)
        mat = fusion.circulant(v)
        x = rng.normal(size=8)
        # matrix action agrees with the direct sum over v[(j-i) mod D]
        for i in range(8):
            expected = sum(v[(j - i) % 8] * x[j] for j in range(8))
            assert mat[i] @ x == pytest.approx(expected, abs=1e-12)

    @given(finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_row_rotation_property(self, vals):
        v = np.array(vals)
        mat = fusion.circulant(v)
        for i in range(len(v) - 1):
            np.testing.assert_array_equal(np.roll(mat[i], 1), mat[i + 1])

    @given(finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_toeplitz_index_structure(self, vals):
        v = np.array(vals)
        mat = fusion.circulant(v)
        n = len(v)
        for i in range(n):
            for j in range(n):
                assert mat[i, j] == v[(j - i) % n]

    @given(finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_row_sums_equal_vector_sum(self, vals):
        v = np.array(vals)
        mat = fusion.circulant(v)
        np.testing.assert_allclose(mat.sum(axis=1), np.full(len(v), v.sum()), atol=1e-9)

    def test_matches_loop_reference(self, rng):
        v = rng.normal(size=11)
        np.testing.assert_array_equal(fusion.circulant(v), oracles.circulant_loops(v))


class TestStacking:
    def test_stack_1d_scalars(self):
        out = fuse_one(fusion.STACK1D, [[1.0]], [2.0], [3.0])
        np.testing.assert_array_equal(out, [[1.0], [2.0], [3.0]])

    def test_stack_1d_pads_rows(self):
        out = fuse_one(fusion.STACK1D, [[1]], [3], [4, 5])
        np.testing.assert_array_equal(out, [[1, 0], [3, 0], [4, 5]])

    def test_stack_1d_challenge_dims(self, rng):
        out = fuse_one(fusion.STACK1D, [rng.normal(size=192)], rng.normal(size=192),
                       rng.normal(size=160))
        assert out.shape == (3, 192)

    def test_circulant_2d_singletons(self):
        out = fuse_one(fusion.CIRC2D, [[1.0]], [2.0], [3.0])
        assert out.shape == (3, 1, 1)
        np.testing.assert_array_equal(out.ravel(), [1.0, 2.0, 3.0])

    def test_circulant_2d_channels(self):
        out = fuse_one(fusion.CIRC2D, [[1, 2]], [0, 0], [3, 4])
        np.testing.assert_array_equal(out[0], [[1, 2], [2, 1]])
        np.testing.assert_array_equal(out[1], np.zeros((2, 2)))
        np.testing.assert_array_equal(out[2], [[3, 4], [4, 3]])

    def test_circulant_2d_challenge_dims(self, rng):
        out = fuse_one(fusion.CIRC2D, [rng.normal(size=192)], rng.normal(size=192),
                       rng.normal(size=160))
        assert out.shape == (3, 192, 192)
        np.testing.assert_array_equal(out[2, 0, 160:], np.zeros(32))

    @given(d=st.integers(1, 64), q=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_shapes_for_random_dims(self, d, q):
        args = ([np.ones(d)], np.ones(d), np.ones(q))
        common = max(d, q)
        assert fuse_one(fusion.CONCAT, *args).shape == (d + d + q,)
        assert fuse_one(fusion.STACK1D, *args).shape == (3, common)
        assert fuse_one(fusion.CIRC2D, *args).shape == (3, common, common)


class TestFuseBatch:
    def test_batch_stacks_leading_axis(self, rng):
        store = random_store(rng, 10, 4, 3)
        trials = [Trial((f"u{i}",), f"u{i + 5}", "target") for i in range(5)]
        rows = compile_trials(store, trials)
        batch = fusion.fuse_batch(store, rows, fusion.CIRC2D)
        assert batch.shape == (5, 3, 4, 4)
        single = fusion.fuse_batch(store, rows[2:3], fusion.CIRC2D)
        np.testing.assert_array_equal(batch[2], single[0])

    def test_unknown_mode_rejected(self, rng):
        store = random_store(rng, 1, 1, 1)
        rows = compile_trials(store, [Trial(("u0",), "u0", "target")])
        with pytest.raises(ValueError, match="unknown fusion mode"):
            fusion.fuse_batch(store, rows, "bogus")

    def test_empty_batch_rejected(self, rng):
        store = random_store(rng, 1, 1, 1)
        rows = compile_trials(store, [Trial(("u0",), "u0", "target")])
        with pytest.raises(ValueError, match="empty batch"):
            fusion.fuse_batch(store, rows[:0], fusion.CONCAT)

    @given(
        d=st.integers(1, 20), q=st.integers(1, 20), n_utts=st.integers(1, 8),
        mode=st.sampled_from(fusion.MODES), data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_trial_loop_bit_for_bit(self, d, q, n_utts, mode, data):
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        spk = data.draw(hnp.arrays(np.float64, (n_utts, d), elements=values))
        cm = data.draw(hnp.arrays(np.float64, (n_utts, q), elements=values))
        store = EmbeddingStore(d, q)
        for i in range(n_utts):
            store.add(f"u{i}", spk=spk[i], cm=cm[i])
        utt = st.integers(0, n_utts - 1).map(lambda i: f"u{i}")
        pairs = data.draw(st.lists(
            st.tuples(st.lists(utt, min_size=1, max_size=5).map(tuple), utt),
            min_size=1, max_size=12,
        ))
        rows = compile_trials(store, [Trial(e, t, "target") for e, t in pairs])
        got = fusion.fuse_batch(store, rows, mode)
        expected = oracles.fuse_trials_loop(
            {f"u{i}": spk[i] for i in range(n_utts)}, {f"u{i}": cm[i] for i in range(n_utts)},
            pairs, mode)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
