"""Equal-error-rate metrics over labeled trial scores.

Conventions, fixed so golden values are stable: at threshold t,
FAR(t) = fraction of negatives >= t and FRR(t) = fraction of positives < t.
The sweep visits every distinct score plus one sentinel above the maximum,
and the EER is read off by linear interpolation between the two adjacent
sweep points that bracket the FAR/FRR crossing.

Three task metrics share the kernel and differ only in partitioning:

* SASV-EER: target vs (nontarget + spoof)
* SPF-EER:  target vs spoof
* SV-EER:   target vs nontarget
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .data import LABELS, atomic_write, format_float, parse_number, read_lines


@dataclass
class ScoreSet:
    """Per-trial scores with labels; trial ids must be unique."""

    trial_ids: list[str]
    scores: np.ndarray
    labels: list[str]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not (len(self.trial_ids) == self.scores.size == len(self.labels)):
            raise ValueError(
                f"mismatched lengths: {len(self.trial_ids)} ids, "
                f"{self.scores.size} scores, {len(self.labels)} labels"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores contain non-finite values")
        bad = sorted({l for l in self.labels if l not in LABELS})
        if bad:
            raise ValueError(f"unknown labels {bad}, expected {LABELS}")
        if len(set(self.trial_ids)) != len(self.trial_ids):
            raise ValueError("duplicate trial ids in score set")

    def __len__(self) -> int:
        return self.scores.size

    def by_label(self, label: str) -> np.ndarray:
        mask = np.array([l == label for l in self.labels], dtype=bool)
        return self.scores[mask]


@dataclass(frozen=True)
class EerReport:
    """The three EERs in percent (None when a partition is absent)."""

    sasv_eer: float | None
    spf_eer: float | None
    sv_eer: float | None
    thresholds: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def format_table(self) -> str:
        def cell(v):
            return f"{v:.3f}" if v is not None else "-"

        lines = [
            "metric     EER(%)   threshold",
            f"SASV-EER   {cell(self.sasv_eer):>8} {self._thr('sasv')}",
            f"SPF-EER    {cell(self.spf_eer):>8} {self._thr('spf')}",
            f"SV-EER     {cell(self.sv_eer):>8} {self._thr('sv')}",
            "counts     " + " ".join(f"{k}={v}" for k, v in sorted(self.counts.items())),
        ]
        return "\n".join(lines)

    def _thr(self, key: str) -> str:
        return f"{self.thresholds[key]:.6f}" if key in self.thresholds else "-"

    def to_json(self) -> str:
        payload = {
            "sasv_eer": self.sasv_eer,
            "spf_eer": self.spf_eer,
            "sv_eer": self.sv_eer,
            "thresholds": self.thresholds,
            "counts": self.counts,
        }
        return json.dumps(payload, sort_keys=True)


def _validated(scores, name: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"eer needs a non-empty {name} side")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} scores contain non-finite values")
    return arr


def _sweep(pos: np.ndarray, neg: np.ndarray):
    """(far, frr, thresholds) arrays over all distinct scores + sentinel.

    The sentinel accepts nothing (FAR 0, FRR 1). Its threshold is the
    maximum + 1 where that is larger, else the next float up (from
    |max| >= 2**53), and the maximum itself at the float64 limit, so every
    threshold is finite.
    """
    uniq = np.unique(np.concatenate([pos, neg]))
    top = uniq[-1] + 1.0
    if top == uniq[-1]:
        top = min(math.nextafter(uniq[-1], math.inf), sys.float_info.max)
    far = (neg.size - np.searchsorted(np.sort(neg), uniq, side="left")) / neg.size
    frr = np.searchsorted(np.sort(pos), uniq, side="left") / pos.size
    return np.append(far, 0.0), np.append(frr, 1.0), np.append(uniq, top)


def det_points(pos_scores, neg_scores) -> list[tuple[float, float, float]]:
    """Monotone DET sweep: FAR non-increasing, FRR non-decreasing."""
    pos = _validated(pos_scores, "positive")
    neg = _validated(neg_scores, "negative")
    far, frr, thr = _sweep(pos, neg)
    return [(float(a), float(r), float(t)) for a, r, t in zip(far, frr, thr)]


def eer(pos_scores, neg_scores) -> tuple[float, float]:
    """EER as a fraction in [0, 1] plus the crossing threshold.

    FAR - FRR is non-increasing along the sweep and runs from +1 to -1, so
    a crossing always exists; ties sitting exactly on the crossing resolve
    without interpolation.
    """
    pos = _validated(pos_scores, "positive")
    neg = _validated(neg_scores, "negative")
    far, frr, thr = _sweep(pos, neg)
    diff = far - frr
    k = int(np.argmax(diff <= 0))
    if diff[k] == 0.0:
        return float(far[k]), float(thr[k])
    j = k - 1
    t = diff[j] / (diff[j] - diff[k])
    value = far[j] + t * (far[k] - far[j])
    lo, hi = float(thr[j]), float(thr[k])
    threshold = lo + t * (hi - lo)
    if not math.isfinite(threshold):  # hi - lo overflows near the float64 limit
        threshold = (1.0 - t) * lo + t * hi
    return float(value), float(threshold)


def evaluate(scores: ScoreSet) -> EerReport:
    """SASV / SPF / SV EERs (percent); absent partitions yield None."""
    pos = scores.by_label("target")
    nontarget = scores.by_label("nontarget")
    spoof = scores.by_label("spoof")
    counts = {
        "target": int(pos.size),
        "nontarget": int(nontarget.size),
        "spoof": int(spoof.size),
    }
    values: dict[str, float | None] = {}
    thresholds: dict[str, float] = {}
    partitions = {
        "sasv": np.concatenate([nontarget, spoof]),
        "spf": spoof,
        "sv": nontarget,
    }
    for key, neg in partitions.items():
        if pos.size == 0 or neg.size == 0:
            values[key] = None
            continue
        value, thr = eer(pos, neg)
        values[key] = 100.0 * value
        thresholds[key] = thr
    return EerReport(
        sasv_eer=values["sasv"],
        spf_eer=values["spf"],
        sv_eer=values["sv"],
        thresholds=thresholds,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# score files: one `trial_id<TAB>score` per line


def write_score_file(trial_ids, scores, path: str, comments: tuple[str, ...] = ()) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    if len(trial_ids) != scores.size:
        raise ValueError("trial id / score count mismatch")
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"{path}: scores contain non-finite values")
    with atomic_write(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        for tid, s in zip(trial_ids, scores):
            fh.write(f"{tid}\t{format_float(s)}\n")


def read_score_file(path: str) -> tuple[list[str], np.ndarray]:
    scores: dict[str, float] = {}

    def record(line):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected trial_id<TAB>score")
        try:
            value = parse_number(parts[1])
        except ValueError:
            raise ValueError(f"malformed score {parts[1]!r}") from None
        if not math.isfinite(value):
            raise ValueError("scores contain non-finite values")
        if parts[0] in scores:
            raise ValueError("duplicate trial ids in score set")
        scores[parts[0]] = value

    read_lines(path, record)
    return list(scores), np.array(list(scores.values()), dtype=np.float64)


def write_det_file(points, path: str) -> None:
    """Dump sweep points as `far<TAB>frr<TAB>threshold` for external plotting."""
    with atomic_write(path) as fh:
        fh.write("# far\tfrr\tthreshold\n")
        for far, frr, thr in points:
            fh.write(f"{format_float(far)}\t{format_float(frr)}\t{format_float(thr)}\n")
