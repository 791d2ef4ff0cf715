"""Gating blocks that rescale conv features along channel and feature axes.

Four kinds are available:

* ``SE1D`` / ``SE2D``: squeeze-and-excitation channel gating with a
  bottleneck of reduction ratio r (ReLU between the two linear maps). One
  block, ``se_attention``, serves both; the kind fixes the input rank
  (BxCxF or BxCxHxW) and the squeeze averages over every axis after C.
* ``PA``: parallel attention. Two pooled views of a BxCxF tensor, one over
  channels and one over features, each pass through their own two-layer
  sigmoid bottleneck; both gates multiply the original tensor with
  broadcasting.
* ``VSE``: coordinate-style variant. Height and width are pooled
  separately, run through a shared bottleneck and per-axis output maps, and
  both axis gates multiply the input.

All linear maps are pure matrix products (no biases), so every block is a
composition of tensor-core ops and differentiates through the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

SE1D = "SE1D"
SE2D = "SE2D"
PA = "PA"
VSE = "VSE"

KINDS = (SE1D, SE2D, PA, VSE)


def reduced_dim(dim: int, r: int) -> int:
    """Bottleneck width: max(1, floor(dim/r)) so tiny dims survive."""
    return max(1, dim // r)


def _init_weight(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    bound = np.sqrt(6.0 / rows)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


@dataclass
class AttentionParams:
    """Weights for one attention block, keyed by role."""

    kind: str
    reduction: int
    weights: dict[str, Tensor]

    @classmethod
    def init(
        cls,
        kind: str,
        rng: np.random.Generator,
        channels: int,
        features: int | None = None,
        reduction: int = 8,
    ) -> "AttentionParams":
        if kind not in KINDS:
            raise ValueError(f"unknown attention kind {kind!r}, expected one of {KINDS}")
        cr = reduced_dim(channels, reduction)
        if kind == PA:
            if features is None:
                raise ValueError("parallel attention needs the feature dimension")
            fr = reduced_dim(features, reduction)
            weights = {
                "w1": _init_weight(rng, features, fr),
                "w2": _init_weight(rng, fr, features),
                "w3": _init_weight(rng, channels, cr),
                "w4": _init_weight(rng, cr, channels),
            }
        elif kind == VSE:
            weights = {
                "wa": _init_weight(rng, channels, cr),
                "wh": _init_weight(rng, cr, channels),
                "ww": _init_weight(rng, cr, channels),
            }
        else:
            weights = {
                "wa": _init_weight(rng, channels, cr),
                "wb": _init_weight(rng, cr, channels),
            }
        return cls(kind=kind, reduction=reduction, weights=weights)

    def named_weights(self) -> list[tuple[str, Tensor]]:
        return sorted(self.weights.items())


def _check_kind(params: AttentionParams, expected: str) -> None:
    if params.kind != expected:
        raise ValueError(f"expected {expected} params, got {params.kind}")


def parallel_attention(t: Tensor, params: AttentionParams) -> Tensor:
    """Dual gating of a BxCxF tensor over its channel and feature axes.

    The feature gate comes from the channel-mean view, the channel gate from
    the feature-mean of the transposed view; each is a sigmoid of two chained
    matrix products, and both multiply the input with dimension expansion.
    """
    _check_kind(params, PA)
    if t.data.ndim != 3:
        raise T.DimensionError(f"parallel attention needs BxCxF input, got {t.shape}")
    b, c, f = t.shape
    w = params.weights
    pooled_f = T.mean(t, axis=1)
    pooled_c = T.mean(T.transpose(t, (0, 2, 1)), axis=1)
    gate_f = T.sigmoid(T.matmul(T.matmul(pooled_f, w["w1"]), w["w2"]))
    gate_c = T.sigmoid(T.matmul(T.matmul(pooled_c, w["w3"]), w["w4"]))
    out = T.mul(T.mul(T.reshape(gate_c, (b, c, 1)), t), T.reshape(gate_f, (b, 1, f)))
    return out


_SE_INPUT = {SE1D: (3, "BxCxF"), SE2D: (4, "BxCxHxW")}


def se_attention(t: Tensor, params: AttentionParams) -> Tensor:
    """Channel gate for SE1D (BxCxF) and SE2D (BxCxHxW) input.

    The squeeze averages over each trailing axis in turn, last axis first;
    a bottleneck, a ReLU and a sigmoid turn it into one gate per channel,
    which rescales the input.
    """
    if params.kind not in _SE_INPUT:
        raise ValueError(f"expected {SE1D} or {SE2D} params, got {params.kind}")
    rank, layout = _SE_INPUT[params.kind]
    if t.data.ndim != rank:
        raise T.DimensionError(f"{params.kind} needs {layout} input, got {t.shape}")
    w = params.weights
    squeeze = t
    for axis in range(rank - 1, 1, -1):
        squeeze = T.mean(squeeze, axis=axis)
    gate = T.sigmoid(T.matmul(T.relu(T.matmul(squeeze, w["wa"])), w["wb"]))
    return T.mul(t, T.reshape(gate, t.shape[:2] + (1,) * (rank - 2)))


def _axis_gate(pooled: Tensor, wa: Tensor, wout: Tensor) -> Tensor:
    # pooled is BxCxN; positions fold into the batch for the per-position maps
    b, c, n = pooled.shape
    flat = T.reshape(T.transpose(pooled, (0, 2, 1)), (b * n, c))
    gate = T.sigmoid(T.matmul(T.relu(T.matmul(flat, wa)), wout))
    return T.transpose(T.reshape(gate, (b, n, c)), (0, 2, 1))


def vse_attention(t: Tensor, params: AttentionParams) -> Tensor:
    """Coordinate-style gating: separate sigmoid gates per H and W position."""
    _check_kind(params, VSE)
    if t.data.ndim != 4:
        raise T.DimensionError(f"VSE needs BxCxHxW input, got {t.shape}")
    b, c, h, wdt = t.shape
    w = params.weights
    pooled_h = T.mean(t, axis=3)
    pooled_w = T.mean(t, axis=2)
    gate_h = _axis_gate(pooled_h, w["wa"], w["wh"])
    gate_w = _axis_gate(pooled_w, w["wa"], w["ww"])
    out = T.mul(T.mul(t, T.reshape(gate_h, (b, c, h, 1))), T.reshape(gate_w, (b, c, 1, wdt)))
    return out


_APPLY = {
    PA: parallel_attention,
    SE1D: se_attention,
    SE2D: se_attention,
    VSE: vse_attention,
}


def apply_attention(t: Tensor, params: AttentionParams) -> Tensor:
    return _APPLY[params.kind](t, params)
