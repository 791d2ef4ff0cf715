import json

import numpy as np
import pytest

from sasvbackend import metrics, score_fusion
from sasvbackend.metrics import ScoreSet
from sasvbackend.score_fusion import FusionModel, average, apply, fit_linear


def make_set(scores, labels=None, ids=None):
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if labels is None:
        labels = ["target" if i % 2 == 0 else "nontarget" for i in range(n)]
    if ids is None:
        ids = [f"t{i:06d}" for i in range(n)]
    return ScoreSet(ids, scores, labels)


def synthetic_systems(rng, n_trials=400, n_systems=4, noise=0.35):
    """Independent-noise systems over a shared clean signal; labels half
    target, half split nontarget/spoof."""
    labels = (
        ["target"] * (n_trials // 2)
        + ["nontarget"] * (n_trials // 4)
        + ["spoof"] * (n_trials - n_trials // 2 - n_trials // 4)
    )
    clean = np.array([1.0 if l == "target" else 0.0 for l in labels])
    ids = [f"t{i:06d}" for i in range(n_trials)]
    sets = []
    for _ in range(n_systems):
        noisy = clean + noise * rng.normal(size=n_trials)
        sets.append(ScoreSet(ids, noisy, list(labels)))
    return sets


class TestAverage:
    def test_identical_sets_pass_through(self, rng):
        base = make_set(rng.uniform(0, 1, 20))
        fused = average([base, base, base])
        np.testing.assert_array_equal(fused.scores, base.scores)
        assert fused.labels == base.labels
        assert fused.trial_ids == base.trial_ids

    def test_two_scores_average_to_half(self):
        a = make_set([0.0], labels=["target"])
        b = make_set([1.0], labels=["target"])
        assert average([a, b]).scores[0] == 0.5

    def test_alignment_by_trial_id_not_order(self, rng):
        scores = rng.uniform(0, 1, 10)
        a = make_set(scores)
        perm = rng.permutation(10)
        b = ScoreSet(
            [a.trial_ids[i] for i in perm], a.scores[perm], [a.labels[i] for i in perm]
        )
        fused = average([a, b])
        np.testing.assert_allclose(fused.scores, a.scores)

    def test_trial_mismatch_lists_missing_ids(self):
        a = make_set([0.1, 0.2], ids=["x", "y"], labels=["target", "spoof"])
        b = make_set([0.1], ids=["x"], labels=["target"])
        with pytest.raises(ValueError, match="missing.*'y'"):
            average([a, b])

    def test_label_disagreement_rejected(self):
        a = make_set([0.1], ids=["x"], labels=["target"])
        b = make_set([0.1], ids=["x"], labels=["spoof"])
        with pytest.raises(ValueError, match="labels disagree"):
            average([a, b])

    def test_fused_eer_beats_best_single_on_noisy_systems(self):
        """Monte-Carlo: with independent per-system noise, averaging should
        be at least as good as the best single in >= 8 of 10 seeded runs."""
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            sets = synthetic_systems(rng)
            singles = [metrics.evaluate(s).sasv_eer for s in sets]
            fused = metrics.evaluate(average(sets)).sasv_eer
            wins += fused <= min(singles)
        assert wins >= 8


class TestFitLinear:
    def test_informative_system_dominates_noise_system(self, rng):
        labels = ["target"] * 200 + ["nontarget"] * 200
        ids = [f"t{i}" for i in range(400)]
        y = np.array([1.0] * 200 + [0.0] * 200)
        informative = ScoreSet(ids, 0.8 * y + 0.1 + 0.05 * rng.normal(size=400), list(labels))
        noise = ScoreSet(ids, rng.uniform(0, 1, 400), list(labels))
        model = fit_linear([informative, noise])
        assert abs(model.weights[0]) / max(abs(model.weights[1]), 1e-12) >= 10

    def test_identical_systems_get_symmetric_weights(self, rng):
        labels = ["target"] * 50 + ["spoof"] * 50
        ids = [f"t{i}" for i in range(100)]
        scores = np.concatenate([rng.uniform(0.5, 1, 50), rng.uniform(0, 0.5, 50)])
        a = ScoreSet(ids, scores, list(labels))
        b = ScoreSet(ids, scores.copy(), list(labels))
        model = fit_linear([a, b])
        assert model.weights[0] == pytest.approx(model.weights[1], abs=1e-6)

    def test_fit_never_loses_to_equal_weights(self, rng):
        """The ascent starts at the averaging point, so its calibration loss
        cannot exceed the equal-weight loss."""
        sets = synthetic_systems(rng, n_trials=300)
        model = fit_linear(sets)
        _, labels, matrix = score_fusion.align(sets)
        y = np.array([1.0 if l == "target" else 0.0 for l in labels])
        fitted = score_fusion._objective(matrix, y, model.weights, model.bias)
        n = matrix.shape[1]
        equal = score_fusion._objective(matrix, y, np.full(n, 1.0 / n), 0.0)
        assert fitted >= equal

    def test_separable_data_reports_convergence_status(self):
        labels = ["target"] * 20 + ["nontarget"] * 20
        ids = [f"t{i}" for i in range(40)]
        hard = np.array([1.0] * 20 + [0.0] * 20)
        a = ScoreSet(ids, hard, list(labels))
        b = ScoreSet(ids, hard.copy(), list(labels))
        model = fit_linear([a, b])
        assert "converged" in model.diagnostics
        assert "grad_norm" in model.diagnostics
        assert np.all(np.isfinite(model.weights))

    def test_single_system_rejected(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            fit_linear([make_set(rng.uniform(0, 1, 10))])

    def test_single_class_rejected(self):
        a = make_set([0.1, 0.2], labels=["target", "target"])
        b = make_set([0.3, 0.4], labels=["target", "target"])
        with pytest.raises(ValueError, match="both classes"):
            fit_linear([a, b])

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration labels must contain both classes"):
            fit_linear([make_set([]), make_set([])])


class TestApply:
    def test_zero_weights_give_half(self, rng):
        sets = [make_set(rng.uniform(0, 1, 8)) for _ in range(2)]
        model = FusionModel(kind=score_fusion.LINEAR, weights=np.zeros(2), bias=0.0)
        fused = apply(model, sets)
        np.testing.assert_array_equal(fused.scores, np.full(8, 0.5))

    def test_average_of_one_system_is_identity(self, rng):
        base = make_set(rng.uniform(0, 1, 12))
        fused = apply(FusionModel(kind=score_fusion.AVERAGE), [base])
        np.testing.assert_array_equal(fused.scores, base.scores)

    def test_linear_matches_scalar_loop(self, rng):
        sets = [make_set(rng.uniform(-2, 2, 30)) for _ in range(3)]
        w = rng.normal(size=3)
        b = float(rng.normal())
        fused = apply(FusionModel(kind=score_fusion.LINEAR, weights=w, bias=b), sets)
        for i in range(30):
            z = sum(w[k] * sets[k].scores[i] for k in range(3)) + b
            expected = 1.0 / (1.0 + np.exp(-z))
            assert fused.scores[i] == pytest.approx(expected, abs=1e-12)

    def test_equal_weight_linear_has_same_eer_as_average(self, rng):
        sets = synthetic_systems(rng, n_trials=200)
        n = len(sets)
        linear = apply(
            FusionModel(kind=score_fusion.LINEAR, weights=np.full(n, 1.0 / n), bias=0.0),
            sets,
        )
        avg = average(sets)
        eer_linear = metrics.evaluate(linear).sasv_eer
        eer_avg = metrics.evaluate(avg).sasv_eer
        assert eer_linear == pytest.approx(eer_avg, abs=1e-9)

    def test_weight_count_mismatch_rejected(self, rng):
        sets = [make_set(rng.uniform(0, 1, 5)) for _ in range(3)]
        model = FusionModel(kind=score_fusion.LINEAR, weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError, match="systems"):
            apply(model, sets)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown fusion kind"):
            apply(FusionModel(kind="median"), [make_set(rng.uniform(0, 1, 4))])


class TestModelFile:
    """``save_fusion_model`` is the only report of the fitted model: its JSON
    holds the kind, the exact weights and bias, and the fit diagnostics."""

    def test_linear_model_json(self, rng, tmp_path):
        labels = ["target"] * 30 + ["spoof"] * 30
        ids = [f"t{i}" for i in range(60)]
        y = np.array([1.0] * 30 + [0.0] * 30)
        sets = [
            ScoreSet(ids, y + 0.2 * rng.normal(size=60), list(labels)) for _ in range(2)
        ]
        model = fit_linear(sets)
        path = tmp_path / "fusion.json"
        score_fusion.save_fusion_model(model, str(path))
        payload = json.loads(path.read_text())
        assert payload == {"kind": score_fusion.LINEAR, "weights": model.weights.tolist(),
                           "bias": model.bias, "diagnostics": model.diagnostics}
        assert np.array(payload["weights"]).tobytes() == model.weights.tobytes()
        assert set(payload["diagnostics"]) == {
            "converged", "iterations", "grad_norm", "mean_log_loss", "penalty"}

    def test_average_model_json(self, tmp_path):
        path = tmp_path / "avg.json"
        score_fusion.save_fusion_model(FusionModel(kind=score_fusion.AVERAGE), str(path))
        assert json.loads(path.read_text()) == {
            "kind": score_fusion.AVERAGE, "weights": None, "bias": 0.0, "diagnostics": {}}
