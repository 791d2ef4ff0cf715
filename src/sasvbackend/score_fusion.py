"""Combining several systems' trial scores: plain averaging and fitted
logistic (linear) fusion.

The linear fit maximizes the penalized mean log-likelihood of the target
label under sigmoid(w . s + b) by monotone gradient ascent, started at the
equal-weight point, so its calibration loss can never exceed the loss of
plain averaging. A small L2 penalty (1e-6) keeps weights finite on
separable data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import atomic_write
from .metrics import ScoreSet
from .tensor import logistic

AVERAGE = "average"
LINEAR = "linear"

_PENALTY = 1e-6
_GRAD_TOL = 1e-8
_MAX_ITER = 10_000


@dataclass
class FusionModel:
    kind: str
    weights: np.ndarray | None = None
    bias: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def align(score_sets: list[ScoreSet]) -> tuple[list[str], list[str], np.ndarray]:
    """(trial_ids, labels, trials-by-systems matrix) in the first set's order.

    All sets must cover exactly the same trial ids with consistent labels.
    """
    if not score_sets:
        raise ValueError("no score sets to fuse")
    base = score_sets[0]
    columns = [base.scores]
    base_index = {tid: i for i, tid in enumerate(base.trial_ids)}
    for k, other in enumerate(score_sets[1:], start=2):
        missing = sorted(set(base.trial_ids) - set(other.trial_ids))
        extra = sorted(set(other.trial_ids) - set(base.trial_ids))
        if missing or extra:
            raise ValueError(
                f"system {k} trial mismatch: missing {missing[:5]}, unexpected {extra[:5]}"
            )
        order = np.fromiter(
            (base_index[tid] for tid in other.trial_ids), dtype=np.int64
        )
        col = np.empty_like(other.scores)
        col[order] = other.scores
        relabeled = [None] * len(other.labels)
        for tid, lab in zip(other.trial_ids, other.labels):
            relabeled[base_index[tid]] = lab
        if relabeled != base.labels:
            raise ValueError(f"system {k} labels disagree with system 1")
        columns.append(col)
    return list(base.trial_ids), list(base.labels), np.stack(columns, axis=1)


def average(score_sets: list[ScoreSet]) -> ScoreSet:
    """Per-trial arithmetic mean of raw scores; labels carried through.

    Computed as base + mean(deltas) so averaging identical sets returns the
    input bit-exactly.
    """
    ids, labels, matrix = align(score_sets)
    base = matrix[:, 0]
    mean = base + (matrix[:, 1:] - base[:, None]).sum(axis=1) / matrix.shape[1]
    return ScoreSet(ids, mean, labels)


def _objective(matrix, y, w, b):
    z = matrix @ w + b
    loglik = -(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)).mean()
    return loglik - 0.5 * _PENALTY * (w @ w + b * b)


def fit_linear(score_sets: list[ScoreSet]) -> FusionModel:
    """Fit logistic fusion weights on calibration score sets."""
    if len(score_sets) < 2:
        raise ValueError("linear fusion needs at least 2 systems")
    _, labels, matrix = align(score_sets)
    y = np.array([1.0 if l == "target" else 0.0 for l in labels])
    if y.size == 0 or y.min() == y.max():
        raise ValueError("calibration labels must contain both classes")

    n_systems = matrix.shape[1]
    w = np.full(n_systems, 1.0 / n_systems)
    b = 0.0
    obj = _objective(matrix, y, w, b)
    rate = 1.0
    grad_norm = np.inf
    iterations = 0
    while iterations < _MAX_ITER:
        iterations += 1
        residual = y - logistic(matrix @ w + b)
        grad_w = matrix.T @ residual / y.size - _PENALTY * w
        grad_b = residual.mean() - _PENALTY * b
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b**2))
        if grad_norm < _GRAD_TOL:
            break
        w_new = w + rate * grad_w
        b_new = b + rate * grad_b
        obj_new = _objective(matrix, y, w_new, b_new)
        if obj_new > obj:
            w, b, obj = w_new, b_new, obj_new
            rate *= 1.2
        else:
            rate *= 0.5

    loglik = _objective(matrix, y, w, b) + 0.5 * _PENALTY * (w @ w + b * b)
    return FusionModel(
        kind=LINEAR,
        weights=w,
        bias=float(b),
        diagnostics={
            "converged": grad_norm < _GRAD_TOL,
            "iterations": iterations,
            "grad_norm": grad_norm,
            "mean_log_loss": float(-loglik),
            "penalty": _PENALTY,
        },
    )


def apply(fusion: FusionModel, score_sets: list[ScoreSet]) -> ScoreSet:
    """AVERAGE: per-trial mean. LINEAR: sigmoid(w . scores + b)."""
    if fusion.kind == AVERAGE:
        return average(score_sets)
    if fusion.kind != LINEAR:
        raise ValueError(f"unknown fusion kind {fusion.kind!r}")
    ids, labels, matrix = align(score_sets)
    if fusion.weights is None or len(fusion.weights) != matrix.shape[1]:
        raise ValueError(
            f"fusion model expects {None if fusion.weights is None else len(fusion.weights)}"
            f" systems, got {matrix.shape[1]}"
        )
    return ScoreSet(ids, logistic(matrix @ fusion.weights + fusion.bias), labels)


def save_fusion_model(fusion: FusionModel, path: str) -> None:
    """Write kind, weights, bias and diagnostics as JSON: the report of
    ``fuse --model-out``. Nothing reads it back."""
    payload = {
        "kind": fusion.kind,
        "weights": None if fusion.weights is None else [float(x) for x in fusion.weights],
        "bias": fusion.bias,
        "diagnostics": fusion.diagnostics,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")

