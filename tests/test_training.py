import pickle

import numpy as np
import pytest

from sasvbackend import _lanes, data, fusion, models, oracles, training
from sasvbackend import tensor as T
from sasvbackend.models import ModelConfig
from sasvbackend.tensor import Tensor
from sasvbackend.training import Adam, TrainConfig, fit, lr_at, weighted_cross_entropy

TINY_DNN = ModelConfig(name="tiny", fusion_mode=fusion.CONCAT, dnn_nodes=(16, 8))


def tiny_synth(seed=0, **overrides):
    kw = dict(
        train_speakers=8, dev_speakers=2, eval_speakers=4,
        utterances_per_speaker=4, d_spk=8, d_cm=6,
        sigma_within=0.05, sigma_between=1.2, spoof_shift=1.2, spoof_spk_noise=0.05,
        train_trials_per_label=40, dev_trials_per_label=10, eval_trials_per_label=60,
        seed=seed,
    )
    kw.update(overrides)
    return data.generate_synthetic(data.SynthConfig(**kw))


class TestWeightedCrossEntropy:
    def test_confident_correct_logits_give_near_zero_loss(self):
        logits = Tensor(np.array([[-50.0, 50.0]]))
        loss = weighted_cross_entropy(logits, [1], (0.1, 0.9))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_equal_logits_weighted(self):
        logits = Tensor(np.array([[0.0, 0.0]]))
        loss = weighted_cross_entropy(logits, [1], (0.1, 0.9))
        assert loss.item() == pytest.approx(0.9 * np.log(2))

    def test_matches_scalar_loop(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            logits = rng.uniform(-10, 10, (n, 2))
            labels = rng.integers(0, 2, n)
            loss = weighted_cross_entropy(Tensor(logits), labels, (0.1, 0.9))
            expected = oracles.weighted_ce_loop(logits, labels, (0.1, 0.9))
            assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_balanced_weights_halve_unweighted(self, rng):
        logits = rng.uniform(-5, 5, (16, 2))
        labels = np.array([0, 1] * 8)
        half = weighted_cross_entropy(Tensor(logits), labels, (0.5, 0.5)).item()
        full = weighted_cross_entropy(Tensor(logits), labels, (1.0, 1.0)).item()
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            weighted_cross_entropy(Tensor(np.zeros((2, 2))), [0, 2], (0.1, 0.9))

    def test_gradient_flows(self, rng):
        logits = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        with T.recording() as tape:
            loss = weighted_cross_entropy(logits, [0, 1, 1, 0], (0.1, 0.9))
        tape.backward(loss)
        assert logits.grad is not None
        assert np.all(np.isfinite(logits.grad))


def tape_step(adam, p, grad, lr, weight_decay=0.0):
    """One Adam step through a tape whose loss, sum(p * grad), has gradient
    exactly ``grad``."""
    with T.recording() as tape:
        loss = T.sum_all(T.mul(p, Tensor(grad)))
    adam.step(lr, weight_decay, tape, loss)


class TestAdam:
    def test_first_step_magnitude_equals_lr(self, rng):
        p = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        grad = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        before = p.data.copy()
        tape_step(Adam([("p", p)]), p, grad, lr=1e-3)
        np.testing.assert_allclose(before - p.data, 1e-3 * np.sign(grad), rtol=1e-6)

    def test_zero_grad_zero_decay_is_identity(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        before = p.data.copy()
        tape_step(Adam([("p", p)]), p, np.zeros(2), lr=1e-3)
        np.testing.assert_array_equal(p.data, before)

    def test_zero_lr_is_identity(self, rng):
        p = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        before = p.data.copy()
        tape_step(Adam([("p", p)]), p, rng.uniform(-1, 1, 4), lr=0.0, weight_decay=1e-3)
        np.testing.assert_array_equal(p.data, before)

    def test_three_steps_on_quadratic_match_scalar_oracle(self):
        # f(w) = w^2 from w=1, gradient 2w, lr 0.1
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = Adam([("p", p)])
        trace_grads, trace_lrs = [], []
        for _ in range(3):
            trace_grads.append(2.0 * p.data)
            trace_lrs.append(0.1)
            tape_step(state, p, trace_grads[-1], lr=0.1)
        expected = oracles.adam_sequence_loops([1.0], trace_grads, trace_lrs, 0.0)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_weight_decay_coupled_into_gradient(self, rng):
        for _ in range(20):
            p0 = rng.uniform(-1, 1, 3)
            p = Tensor(p0.copy(), requires_grad=True)
            state = Adam([("p", p)])
            grads, lrs = [], []
            for step in range(4):
                grads.append(rng.uniform(-1, 1, 3))
                lrs.append(1e-2 / (1 + 0.1 * step))
                tape_step(state, p, grads[-1], lr=lrs[-1], weight_decay=1e-3)
            expected = oracles.adam_sequence_loops(p0, grads, lrs, 1e-3)
            np.testing.assert_allclose(p.data, expected, atol=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["1", "block-1", "block", "block+1", "3block+7"])
    def test_blocked_step_is_bit_identical_to_vectorised(self, rng, blocks, extra, weight_decay):
        n = blocks * _lanes.BLOCK + extra
        p0, grads = rng.uniform(-1, 1, n), rng.uniform(-1, 1, (5, n))
        p = Tensor(p0.copy(), requires_grad=True)
        state = Adam([("p", p)])
        for g in grads:
            tape_step(state, p, g, lr=1e-2, weight_decay=weight_decay)
        # the whole-array update that the blocked step must match bit for bit
        expected, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        for t, g in enumerate(grads, start=1):
            oracles.adam_whole_array(expected, m, v, g, t, 1e-2, weight_decay)
        assert p.data.tobytes() == expected.tobytes()

    def test_gradient_shape_mismatch_raises(self):
        """A parameter no rule reads is updated from the gradient it holds."""
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        used = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(6)
        with pytest.raises(T.DimensionError, match="gradient"):
            tape_step(Adam([("p", p)]), used, np.ones(2), lr=1e-3)


class SpyAdam(Adam):
    """Adam that logs each update: the parameter's name, the rows, the
    gradient's bytes and whether the parameter held a gradient then."""

    def __init__(self, named_params):
        super().__init__(named_params)
        self.names = {id(p): name for name, p in self.named_params}
        self.calls = []

    def update(self, p, grad, rows=slice(None)):
        self.calls.append((self.names[id(p)], rows, grad.tobytes(), p.grad is None))
        super().update(p, grad, rows)


class TestAdamInBackward:
    @staticmethod
    def _linear_loss(x, w, b, proj):
        return T.sum_all(T.mul(T.leaky_relu(T.linear(Tensor(x), w, b)), Tensor(proj)))

    @pytest.mark.parametrize("budget, k, n, rows", [
        (32, 37, 8, [4] * 8 + [5]),  # a trailing single row joins the block before it
        (32, 40, 8, [4] * 10),
        (8, 9, 16, [2] * 3 + [3]),  # at least two rows, even over the budget
        (T.Tape.ROW_BLOCK, 40, 16, [40]),
    ], ids=["trailing-row", "even", "two-row-minimum", "default-one-block"])
    def test_matmul_weight_goes_to_adam_in_row_blocks(self, rng, budget, k, n, rows):
        x, proj = rng.uniform(-1, 1, (5, k)), rng.uniform(-1, 1, (5, n))
        w0, b0 = rng.uniform(-1, 1, (k, n)), rng.uniform(-1, 1, n)
        w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
        adam = SpyAdam([("w", w), ("b", b)])
        tape = T.Tape()
        tape.ROW_BLOCK = budget
        with T.recording(tape):
            loss = self._linear_loss(x, w, b, proj)
        adam.step(1e-2, 1e-3, tape, loss)
        blocks = [(r, held_none) for name, r, _, held_none in adam.calls if name == "w"]
        assert [r.stop - r.start for r, _ in blocks] == rows
        assert [i for r, _ in blocks for i in range(r.start, r.stop)] == list(range(k))
        assert all(held_none for _, held_none in blocks) and w.grad is None
        # the same bytes as a whole gradient and the whole-array formula
        wr, br = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
        with T.recording() as tape:
            loss = self._linear_loss(x, wr, br, proj)
        tape.backward(loss)
        for p, ref in ((w, wr), (b, br)):
            oracles.adam_whole_array(ref.data, np.zeros_like(ref.data), np.zeros_like(ref.data),
                                     ref.grad, 1, 1e-2, 1e-3)
            assert p.data.tobytes() == ref.data.tobytes()

    def test_shared_weight_updated_once_after_both_uses(self, rng):
        """VSE's ``att.wa`` feeds the row and the column gate's matmul."""
        config = models.ModelConfig(
            name="vse", fusion_mode=fusion.CIRC2D, conv_channels=(4, 8), conv_kernels=(3, 3),
            pool_size=(2, 2), dnn_nodes=(6,), attention_kind="VSE", attention_position=1)
        live, ref = (models.build(config, (5, 5, 4), seed=3) for _ in range(2))
        batch, labels = rng.uniform(-1, 1, (4, 3, 5, 5)), [0, 1, 1, 0]
        with T.recording() as tape:
            loss = weighted_cross_entropy(ref.forward(batch, training=True), labels, (0.1, 0.9))
        tape.backward(loss)
        adam = SpyAdam(live.params.items())
        with T.recording() as tape:
            loss = weighted_cross_entropy(live.forward(batch, training=True), labels, (0.1, 0.9))
        adam.step(1e-3, 1e-3, tape, loss)
        wa = [(rows, grad) for name, rows, grad, _ in adam.calls if name == "att.wa"]
        assert wa == [(slice(None), ref.params["att.wa"].grad.tobytes())]
        assert sorted(name for name, *_ in adam.calls) == sorted(live.params)
        assert all(p.grad is None for p in live.params.values())

    def test_parameter_the_tape_never_reaches_raises(self, rng):
        used = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        unused = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        with T.recording() as tape:
            loss = T.sum_all(T.mul(used, used))
        before = used.data.copy()
        with pytest.raises(ValueError, match="parameter 'unused' has no gradient"):
            Adam([("used", used), ("unused", unused)]).step(1e-3, 0.0, tape, loss)
        assert np.array_equal(used.data, before)  # raised before any rule ran

    def test_fit_matches_backward_then_step(self):
        """fit's in-backward steps give the checkpoint of the earlier order:
        a full backward, then one Adam step over the held gradients."""
        store, protos = tiny_synth(seed=3)
        model = models.build(TINY_DNN, (8, 8, 6), seed=7)
        cfg = TrainConfig(batch_size=16, epochs=2, seed=7)
        fit(model, protos["train"].trials, cfg, store)
        ref = models.build(TINY_DNN, (8, 8, 6), seed=7)
        rows = data.compile_trials(store, protos["train"].trials)
        y = (rows.labels == "target").astype(np.intp)
        moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.params.items()}
        rng, step = np.random.default_rng(cfg.seed), 0
        for _ in range(cfg.epochs):
            for idx in training._batches(len(rows), cfg.batch_size, rng.permutation(len(rows))):
                batch = fusion.fuse_batch(store, rows[idx], fusion.CONCAT)
                with T.recording() as tape:
                    loss = weighted_cross_entropy(ref.forward(batch, training=True), y[idx],
                                                  cfg.class_weights)
                tape.backward(loss)
                step += 1
                for name, p in ref.params.items():
                    oracles.adam_whole_array(p.data, *moments[name], p.grad, step,
                                             lr_at(step - 1, cfg), cfg.weight_decay)
                    p.zero_grad()
        state, want = model.state_arrays(), ref.state_arrays()
        assert all(state[k].tobytes() == want[k].tobytes() for k in want)

    def test_fit_on_compiled_rows_matches_fit_on_trials(self):
        store, protos = tiny_synth(seed=3)
        cfg = TrainConfig(batch_size=16, epochs=2, seed=7)
        states = []
        for as_rows in (False, True):
            model = models.build(TINY_DNN, (8, 8, 6), seed=7)
            train, dev = protos["train"].trials, protos["dev"].trials
            if as_rows:
                train, dev = data.compile_trials(store, train), data.compile_trials(store, dev)
            result = fit(model, train, cfg, store, dev_trials=dev)
            states.append((result.best_epoch, model.state_arrays()))
        (epoch, state), (rows_epoch, rows_state) = states
        assert rows_epoch == epoch
        assert {k: a.tobytes() for k, a in rows_state.items()} == {
            k: a.tobytes() for k, a in state.items()}


class TestLrSchedule:
    def test_initial_rate(self):
        assert lr_at(0, TrainConfig()) == 1e-3

    def test_zero_decay_is_constant(self):
        cfg = TrainConfig(schedule_decay=0.0)
        assert lr_at(10_000, cfg) == cfg.lr0

    def test_inverse_time_halving(self):
        cfg = TrainConfig(schedule_decay=1e-4)
        assert lr_at(10_000, cfg) == pytest.approx(5e-4)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kw", [dict(lr0=0.0), dict(class_weight_negative=0.0),
               dict(batch_size=1), dict(epochs=0), dict(schedule_decay=-1.0)]
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestFit:
    def test_trailing_singleton_joins_the_chunk_before(self):
        chunks = training._batches(7, 3, np.arange(7)[::-1])
        assert [c.tolist() for c in chunks] == [[6, 5, 4], [3, 2, 1, 0]]

    def test_cnn_fit_with_one_trial_past_a_full_batch(self):
        """120 train trials at batch 17 leave one over: a conv block in
        training mode would reject a batch of one."""
        store, protos = tiny_synth(seed=3)
        assert len(protos["train"].trials) % 17 == 1
        config = ModelConfig(name="tiny1d", fusion_mode=fusion.STACK1D, conv_channels=(4,),
                             conv_kernels=(3,), pool_size=(2,), dnn_nodes=(6,))
        model = models.build(config, (8, 8, 6), seed=7)
        result = fit(model, protos["train"].trials, TrainConfig(batch_size=17, epochs=1, seed=7),
                     store)
        assert np.isfinite(result.logs[0].mean_loss)

    def test_separable_two_point_toy(self):
        store = data.EmbeddingStore(2, 2)
        store.add("enroll", spk=[1.0, 0.0], cm=[0.0, 0.0])
        store.add("same", spk=[1.0, 0.1], cm=[0.1, 0.0])
        store.add("other", spk=[-1.0, 0.2], cm=[1.5, 1.5])
        trials = [
            data.Trial(("enroll",), "same", "target"),
            data.Trial(("enroll",), "other", "spoof"),
        ]
        model = models.build(TINY_DNN, (2, 2, 2), seed=0)
        cfg = TrainConfig(lr0=1e-2, batch_size=2, epochs=200, schedule_decay=0.0,
                          weight_decay=0.0, seed=0)
        result = fit(model, trials, cfg, store)
        assert result.logs[-1].mean_loss < 1e-3

    def test_fixed_seed_reproduces_loss_log_exactly(self):
        store, protos = tiny_synth(seed=3)
        losses = []
        for _ in range(2):
            model = models.build(TINY_DNN, (8, 8, 6), seed=7)
            cfg = TrainConfig(batch_size=16, epochs=4, seed=7)
            result = fit(model, protos["train"].trials, cfg, store)
            losses.append([log.mean_loss for log in result.logs])
        assert losses[0] == losses[1]

    def test_training_determinism_gives_identical_checkpoints(self, tmp_path):
        store, protos = tiny_synth(seed=3)
        paths = []
        for tag in ("a", "b"):
            model = models.build(TINY_DNN, (8, 8, 6), seed=7)
            cfg = TrainConfig(batch_size=16, epochs=3, seed=7)
            fit(model, protos["train"].trials, cfg, store)
            path = tmp_path / f"{tag}.ckpt"
            models.save_checkpoint(model, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_decreases_over_early_epochs(self):
        store, protos = tiny_synth(seed=5)
        model = models.build("Extend512_DNN", (8, 8, 6), seed=5)
        cfg = TrainConfig(batch_size=32, epochs=5, seed=5)
        result = fit(model, protos["train"].trials, cfg, store)
        assert result.logs[4].mean_loss < result.logs[0].mean_loss

    def test_overflow_in_a_step_raises_naming_epoch_and_step(self):
        """Every value is finite, but spoofs 1e308 away in CM space make
        the step overflow; training stops instead of going on with inf."""
        store, protos = tiny_synth(seed=3, spoof_shift=1e308)
        model = models.build(TINY_DNN, (8, 8, 6), seed=7)
        with pytest.raises(RuntimeError, match=r"^floating-point overflow .* at epoch 1, step \d"):
            fit(model, protos["train"].trials, TrainConfig(batch_size=16, epochs=2, seed=7), store)

    @pytest.mark.parametrize("as_rows", [False, True], ids=["trials", "rows"])
    def test_single_class_data_rejected(self, as_rows):
        store, protos = tiny_synth(seed=1)
        only_targets = [t for t in protos["train"].trials if t.label == "target"]
        if as_rows:
            only_targets = data.compile_trials(store, only_targets)
        model = models.build(TINY_DNN, (8, 8, 6), seed=0)
        with pytest.raises(ValueError, match="both classes"):
            fit(model, only_targets, TrainConfig(), store)

    @pytest.mark.parametrize("as_rows", [False, True], ids=["trials", "rows"])
    def test_empty_training_set_rejected(self, as_rows):
        store, protos = tiny_synth(seed=1)
        empty = data.compile_trials(store, protos["train"].trials)[:0] if as_rows else []
        model = models.build(TINY_DNN, (8, 8, 6), seed=0)
        with pytest.raises(ValueError, match="no training trials"):
            fit(model, empty, TrainConfig(), store)

    def test_train_config_is_one_frozen_picklable_recipe(self):
        cfg = TrainConfig(class_weight_positive=0.8, select_best=False)
        assert cfg.class_weights == (0.1, 0.8)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        with pytest.raises(AttributeError):
            cfg.epochs = 3

    def test_dev_logging_and_best_selection(self):
        store, protos = tiny_synth(seed=9)
        model = models.build(TINY_DNN, (8, 8, 6), seed=9)
        cfg = TrainConfig(batch_size=16, epochs=3, seed=9)
        result = fit(model, protos["train"].trials, cfg, store,
                     dev_trials=protos["dev"].trials)
        assert all(log.dev.sasv_eer is not None for log in result.logs)
        assert result.best_epoch is not None
        line = result.logs[0].format_line()
        assert "epoch=1" in line and "dev_sasv=" in line

    @pytest.mark.parametrize("select_best", [False, True], ids=["last", "best-by-dev"])
    def test_returns_holding_no_gradients(self, select_best):
        store, protos = tiny_synth(seed=9)
        model = models.build(TINY_DNN, (8, 8, 6), seed=9)
        fit(model, protos["train"].trials,
            TrainConfig(batch_size=16, epochs=2, seed=9, select_best=select_best), store,
            dev_trials=protos["dev"].trials)
        assert all(p.grad is None for p in model.params.values())

    def test_unknown_dev_id_raises_before_any_step(self, monkeypatch):
        store, protos = tiny_synth(seed=4)
        dev = protos["dev"].trials + [data.Trial(("ghost",), protos["dev"].trials[0].test_id,
                                                 "target")]
        model = models.build(TINY_DNN, (8, 8, 6), seed=4)
        before = model.state_arrays()

        def no_step(self, *args, **kwargs):
            raise AssertionError("optimizer stepped before the dev ids were resolved")

        monkeypatch.setattr(training.Adam, "step", no_step)
        with pytest.raises(KeyError, match="no speaker embedding stored for 'ghost'"):
            fit(model, protos["train"].trials, TrainConfig(batch_size=16, epochs=2), store,
                dev_trials=dev)
        after = model.state_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_synthetic_workload_reaches_low_eer(self):
        """End-to-end: the generator's default-style workload is learnable
        to SASV-EER <= 2% held out."""
        cfg = data.SynthConfig(
            sigma_within=0.055, sigma_between=1.1, spoof_shift=1.1,
            spoof_spk_noise=0.05, train_trials_per_label=90,
            dev_trials_per_label=10, eval_trials_per_label=300, seed=21,
        )
        store, protos = data.generate_synthetic(cfg)
        model = models.build("CNN1D", (16, 16, 12), seed=21)
        tc = TrainConfig(batch_size=90, epochs=12, seed=21)
        fit(model, protos["train"].trials, tc, store)
        report = training.evaluate_trials(model, protos["eval"].trials, store)
        assert report.sasv_eer <= 2.0


class TestScoreTrials:
    def test_empty_trial_list_gives_no_scores(self):
        store, _ = tiny_synth(seed=2)
        model = models.build(TINY_DNN, (8, 8, 6), seed=2)
        assert training.score_trials(model, [], store).shape == (0,)

    def test_scores_align_with_protocol_order(self, rng):
        store, protos = tiny_synth(seed=2)
        model = models.build(TINY_DNN, (8, 8, 6), seed=2)
        trials = protos["eval"].trials[:10]
        scores = training.score_trials(model, trials, store, batch_size=4)
        assert scores.shape == (10,)
        # independent per-trial scoring gives the same values
        single = np.concatenate(
            [training.score_trials(model, [t], store) for t in trials]
        )
        np.testing.assert_allclose(scores, single, atol=1e-12)
