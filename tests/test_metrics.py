import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sasvbackend import metrics, oracles
from sasvbackend.metrics import EerReport, ScoreSet


# 12 hand-placed scores with overlap regions and a target/spoof tie at 0.55;
# expected EERs were computed with the exhaustive midpoint-threshold oracle
# and frozen here.
GOLDEN_FIXTURE = [
    ("t00", 0.95, "target"), ("t01", 0.85, "target"), ("t02", 0.70, "target"),
    ("t03", 0.55, "target"), ("t04", 0.40, "target"),
    ("t05", 0.60, "nontarget"), ("t06", 0.30, "nontarget"), ("t07", 0.10, "nontarget"),
    ("t08", 0.55, "spoof"), ("t09", 0.45, "spoof"), ("t10", 0.20, "spoof"),
    ("t11", 0.05, "spoof"),
]
GOLDEN_EERS = {"sasv": 25.0, "spf": 22.222222222222225, "sv": 33.33333333333333}


def golden_score_set():
    return ScoreSet(
        [f[0] for f in GOLDEN_FIXTURE],
        [f[1] for f in GOLDEN_FIXTURE],
        [f[2] for f in GOLDEN_FIXTURE],
    )


class TestEer:
    def test_perfect_separation(self):
        value, _ = metrics.eer([0.9, 0.8], [0.1, 0.2])
        assert value == 0.0

    def test_identical_multisets(self):
        value, _ = metrics.eer([0.3, 0.7], [0.3, 0.7])
        assert value == pytest.approx(0.5)

    def test_threshold_separates_at_eer_point(self):
        _, threshold = metrics.eer([0.9, 0.8], [0.1, 0.2])
        assert 0.2 < threshold <= 0.8

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            metrics.eer([], [0.1])
        with pytest.raises(ValueError, match="non-empty"):
            metrics.eer([0.1], [])

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_bruteforce_with_ties(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n_pos = int(rng.integers(1, 200))
        n_neg = int(rng.integers(1, 200))
        decimals = int(rng.integers(1, 4))
        scores = np.round(rng.uniform(0, 1, n_pos + n_neg), decimals)
        pos, neg = scores[:n_pos], scores[n_pos:]
        value, _ = metrics.eer(pos, neg)
        assert value == pytest.approx(oracles.eer_bruteforce(pos, neg), abs=1e-9)

    # scores on a 1e-3 grid so exp/affine/cube remain injective in float64
    # (denormals would collapse under cubing and break strict monotonicity)
    @given(
        pos=st.lists(st.integers(0, 1000).map(lambda k: k / 1000.0), min_size=1, max_size=40),
        neg=st.lists(st.integers(0, 1000).map(lambda k: k / 1000.0), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transforms(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        base, _ = metrics.eer(pos, neg)
        for f in (np.exp, lambda s: 3.0 * s + 1.0, lambda s: s**3):
            transformed, _ = metrics.eer(f(pos), f(neg))
            assert transformed == pytest.approx(base, abs=1e-9)

    def test_large_scores_keep_the_sentinel_above_the_maximum(self):
        """From |max| >= 2**53, max + 1 rounds to max; the sentinel must still
        accept nothing."""
        assert metrics.eer([0, 1e17], [1e17])[0] == metrics.eer([0, 1], [1])[0]

    @given(
        pos=st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000.0), min_size=1, max_size=40),
        neg=st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000.0), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_positive_scaling(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        base, _ = metrics.eer(pos, neg)
        for scale in (1e-300, 1e-3, 7.0, 2.0**53, 1e17, 1e100, 1e300):
            value, threshold = metrics.eer(scale * pos, scale * neg)
            assert value == base and np.isfinite(threshold)

    def test_thresholds_finite_at_the_float64_limit(self):
        top = np.finfo(np.float64).max
        for pos, neg in (([top], [top]), ([-top, -top, top], [-top, top]), ([top], [-top])):
            _, threshold = metrics.eer(pos, neg)
            assert np.isfinite(threshold)
            assert all(np.isfinite(t) for _, _, t in metrics.det_points(pos, neg))
            assert metrics.det_points(pos, neg)[-1][:2] == (0.0, 1.0)

    @given(
        pos=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40),
        neg=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_and_negate_symmetry(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        base, _ = metrics.eer(pos, neg)
        flipped, _ = metrics.eer(-np.array(neg), -np.array(pos))
        assert flipped == pytest.approx(base, abs=1e-9)

    @given(
        pos=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
        neg=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_oracle_agreement(self, pos, neg):
        value, _ = metrics.eer(pos, neg)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(oracles.eer_bruteforce(pos, neg), abs=1e-9)


class TestDetPoints:
    def test_separable_contains_zero_zero(self):
        points = metrics.det_points([0.9], [0.1])
        assert any(far == 0.0 and frr == 0.0 for far, frr, _ in points)

    def test_reversed_scores_hit_extremes(self):
        points = metrics.det_points([0.1], [0.9])
        assert any(far == 1.0 or frr == 1.0 for far, frr, _ in points)

    def test_sweep_is_monotone(self, rng):
        pos = rng.normal(size=50)
        neg = rng.normal(size=70)
        points = metrics.det_points(pos, neg)
        fars = [p[0] for p in points]
        frrs = [p[1] for p in points]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))


class TestEvaluate:
    def test_fully_separated_gives_zero_everywhere(self):
        ss = ScoreSet(
            ["a", "b", "c", "d"],
            [1.0, 1.0, 0.0, 0.0],
            ["target", "target", "nontarget", "spoof"],
        )
        report = metrics.evaluate(ss)
        assert report.sasv_eer == 0.0
        assert report.spf_eer == 0.0
        assert report.sv_eer == 0.0

    def test_empty_set_has_no_partitions(self):
        empty = ScoreSet([], [], [])
        assert empty.by_label("target").shape == (0,)
        report = metrics.evaluate(empty)
        assert (report.sasv_eer, report.spf_eer, report.sv_eer) == (None, None, None)
        assert report.counts == {"target": 0, "nontarget": 0, "spoof": 0}

    def test_golden_fixture(self):
        report = metrics.evaluate(golden_score_set())
        assert report.sasv_eer == pytest.approx(GOLDEN_EERS["sasv"], abs=1e-9)
        assert report.spf_eer == pytest.approx(GOLDEN_EERS["spf"], abs=1e-9)
        assert report.sv_eer == pytest.approx(GOLDEN_EERS["sv"], abs=1e-9)
        assert report.counts == {"target": 5, "nontarget": 3, "spoof": 4}

    def test_uniform_scores_sit_near_chance(self):
        rng = np.random.default_rng(7)
        n = 10_000
        labels = ["target"] * n + ["nontarget"] * n + ["spoof"] * n
        ids = [f"t{i}" for i in range(3 * n)]
        ss = ScoreSet(ids, rng.uniform(0, 1, 3 * n), labels)
        report = metrics.evaluate(ss)
        for value in (report.sasv_eer, report.spf_eer, report.sv_eer):
            assert value == pytest.approx(50.0, abs=2.0)

    def test_partition_definitions(self):
        # spoofs score high: SPF must suffer, SV must stay clean
        ss = ScoreSet(
            ["a", "b", "c", "d"],
            [0.9, 0.8, 0.1, 0.95],
            ["target", "target", "nontarget", "spoof"],
        )
        report = metrics.evaluate(ss)
        assert report.sv_eer == 0.0
        assert report.spf_eer > 0.0

    def test_missing_partition_reported_absent(self):
        ss = ScoreSet(["a", "b"], [0.9, 0.1], ["target", "nontarget"])
        report = metrics.evaluate(ss)
        assert report.spf_eer is None
        assert report.sv_eer == 0.0
        assert report.sasv_eer == 0.0
        assert "spf" not in report.thresholds

    def test_partition_counts_cover_all_trials(self, rng):
        labels = ["target"] * 10 + ["nontarget"] * 7 + ["spoof"] * 5
        ss = ScoreSet([f"t{i}" for i in range(22)], rng.uniform(0, 1, 22), labels)
        report = metrics.evaluate(ss)
        assert sum(report.counts.values()) == 22

    def test_report_formats(self):
        report = metrics.evaluate(golden_score_set())
        table = report.format_table()
        assert "SASV-EER" in table and "25.000" in table
        payload = json.loads(report.to_json())
        assert payload["sasv_eer"] == pytest.approx(25.0)


class TestExcludedLabelsAreIgnored:
    """SPF ignores nontargets, SV ignores spoofs: perturbing an excluded
    label's scores must leave the metric bit-identical."""

    def test_spf_ignores_nontarget_scores(self, rng):
        ss = golden_score_set()
        base = metrics.evaluate(ss)
        moved = ScoreSet(
            ss.trial_ids,
            [s + (7.7 if l == "nontarget" else 0.0) for s, l in zip(ss.scores, ss.labels)],
            ss.labels,
        )
        assert metrics.evaluate(moved).spf_eer == base.spf_eer

    def test_sv_ignores_spoof_scores(self, rng):
        ss = golden_score_set()
        base = metrics.evaluate(ss)
        moved = ScoreSet(
            ss.trial_ids,
            [s - (3.3 if l == "spoof" else 0.0) for s, l in zip(ss.scores, ss.labels)],
            ss.labels,
        )
        assert metrics.evaluate(moved).sv_eer == base.sv_eer


class TestScoreSetValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScoreSet(["a", "a"], [0.1, 0.2], ["target", "spoof"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ScoreSet(["a"], [0.1], ["bonafide"])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreSet(["a"], [np.inf], ["target"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ScoreSet(["a", "b"], [0.1], ["target"])


class TestScoreFiles:
    def test_round_trip(self, rng, tmp_path):
        ids = [f"t{i:06d}" for i in range(50)]
        scores = rng.uniform(-5, 5, 50)
        path = tmp_path / "scores.tsv"
        metrics.write_score_file(ids, scores, str(path), comments=("seed=1",))
        back_ids, back_scores = metrics.read_score_file(str(path))
        assert back_ids == ids
        assert np.array_equal(back_scores, scores)

    def test_malformed_line_cites_number(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("t0\t0.5\nt1\tnot-a-number\n")
        with pytest.raises(ValueError, match="2"):
            metrics.read_score_file(str(path))

    @pytest.mark.parametrize("value", ["+1.5", ".5", "-0.0", "1e-3", "1E+2", "5e-324"])
    def test_ascii_spellings_read_as_float_reads_them(self, tmp_path, value):
        path = tmp_path / "scores.tsv"
        path.write_text(f"t0\t{value}\n")
        _, scores = metrics.read_score_file(str(path))
        assert scores.tobytes() == np.array([float(value)]).tobytes()

    @pytest.mark.parametrize("value", ["1_0", "0.2_5", "\u0661", "1\u00a0", "\uff11.5"])
    def test_python_only_spellings_are_malformed(self, tmp_path, value):
        """float() reads "1_0" as 10.0 and "\u0661" (Arabic-Indic one) as 1.0;
        the score reader takes ASCII tokens without "_", as the embedding
        reader does."""
        path = tmp_path / "scores.tsv"
        path.write_text(f"t0\t0.5\nt1\t{value}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            metrics.read_score_file(str(path))
        assert str(err.value) == f"{path}:2: malformed score {value!r}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_cites_file_and_line(self, tmp_path, value):
        path = tmp_path / "scores.tsv"
        path.write_text(f"# seed=1\nt0\t0.5\nt1\t{value}\n")
        with pytest.raises(ValueError) as err:
            metrics.read_score_file(str(path))
        assert str(err.value) == f"{path}:3: scores contain non-finite values"

    def test_duplicate_trial_id_cites_file_and_line(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("t0\t0.5\nt1\t0.25\nt0\t0.5\n")
        with pytest.raises(ValueError) as err:
            metrics.read_score_file(str(path))
        assert str(err.value) == f"{path}:3: duplicate trial ids in score set"

    def test_write_rejects_non_finite_before_creating_a_file(self, tmp_path):
        path = tmp_path / "scores.tsv"
        with pytest.raises(ValueError, match=f"^{path}: scores contain non-finite"):
            metrics.write_score_file(["t0", "t1"], [0.5, np.nan], str(path))
        assert list(tmp_path.iterdir()) == []

    def test_det_file_written(self, tmp_path, rng):
        points = metrics.det_points(rng.normal(size=10), rng.normal(size=10))
        path = tmp_path / "det.tsv"
        metrics.write_det_file(points, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(points) + 1
