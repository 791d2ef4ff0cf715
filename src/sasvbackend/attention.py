"""Gating blocks that rescale conv features along channel and feature axes.

Four kinds are available:

* ``SE1D`` / ``SE2D``: squeeze-and-excitation channel gating with a
  bottleneck of reduction ratio r (ReLU between the two linear maps). One
  block serves both; the squeeze averages over every axis after C.
* ``PA``: parallel attention. Two pooled views of a BxCxF tensor, one over
  channels and one over features, each pass through their own two-layer
  sigmoid bottleneck; both gates multiply the original tensor with
  broadcasting.
* ``VSE``: coordinate-style variant. Height and width are pooled
  separately, run through a shared bottleneck and per-axis output maps, and
  both axis gates multiply the input.

``RANK`` gives each kind's spatial axes: BxCxF input for SE1D and PA,
BxCxHxW for SE2D and VSE. ``apply_attention`` is the one entry point and
checks the input's rank. All linear maps are pure matrix products (no
biases), so every block is a composition of tensor-core ops and
differentiates through the tape.
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

RANK = {SE1D: 1, SE2D: 2, PA: 1, VSE: 2}
KINDS = tuple(RANK)


def reduced_dim(dim: int, r: int) -> int:
    """Bottleneck width: max(1, floor(dim/r)) so tiny dims survive."""
    return max(1, dim // r)


@dataclass
class AttentionParams:
    """Weights for one attention block, keyed by role."""

    kind: str
    weights: dict[str, Tensor]

    @classmethod
    def init(
        cls,
        kind: str,
        rng: np.random.Generator | None,
        channels: int,
        features: int,
        reduction: int = 8,
    ) -> "AttentionParams":
        """Weights for C = ``channels`` and, for PA, F = ``features``; with
        ``rng`` None they are left uninitialised."""
        if kind not in KINDS:
            raise ValueError(f"unknown attention kind {kind!r}, expected one of {KINDS}")
        cr = reduced_dim(channels, reduction)

        def weight(rows, cols):
            return T.init_weight(rng, (rows, cols), rows)

        if kind == PA:
            fr = reduced_dim(features, reduction)
            weights = {"w1": weight(features, fr), "w2": weight(fr, features),
                       "w3": weight(channels, cr), "w4": weight(cr, channels)}
        elif kind == VSE:
            weights = {"wa": weight(channels, cr), "wh": weight(cr, channels),
                       "ww": weight(cr, channels)}
        else:
            weights = {"wa": weight(channels, cr), "wb": weight(cr, channels)}
        return cls(kind=kind, weights=weights)

    def named_weights(self) -> list[tuple[str, Tensor]]:
        return sorted(self.weights.items())


def _pa(t: Tensor, params: AttentionParams) -> Tensor:
    """Dual gating of a BxCxF tensor over its channel and feature axes.

    The feature gate comes from the channel-mean view, the channel gate from
    the feature-mean of the transposed view; each is a sigmoid of two chained
    matrix products, and both multiply the input with dimension expansion.
    """
    b, c, f = t.shape
    w = params.weights
    pooled_f = T.mean(t, axis=1)
    pooled_c = T.mean(T.transpose(t, (0, 2, 1)), axis=1)
    gate_f = T.sigmoid(T.matmul(T.matmul(pooled_f, w["w1"]), w["w2"]))
    gate_c = T.sigmoid(T.matmul(T.matmul(pooled_c, w["w3"]), w["w4"]))
    out = T.mul(T.mul(T.reshape(gate_c, (b, c, 1)), t), T.reshape(gate_f, (b, 1, f)))
    return out


def _se(t: Tensor, params: AttentionParams) -> Tensor:
    """Channel gate for SE1D (BxCxF) and SE2D (BxCxHxW) input.

    The squeeze averages over each trailing axis in turn, last axis first;
    a bottleneck, a ReLU and a sigmoid turn it into one gate per channel,
    which rescales the input.
    """
    w = params.weights
    squeeze = t
    for axis in range(t.data.ndim - 1, 1, -1):
        squeeze = T.mean(squeeze, axis=axis)
    gate = T.sigmoid(T.matmul(T.relu(T.matmul(squeeze, w["wa"])), w["wb"]))
    return T.mul(t, T.reshape(gate, t.shape[:2] + (1,) * (t.data.ndim - 2)))


def _axis_gate(pooled: Tensor, wa: Tensor, wout: Tensor) -> Tensor:
    # pooled is BxCxN; positions fold into the batch for the per-position maps
    b, c, n = pooled.shape
    flat = T.reshape(T.transpose(pooled, (0, 2, 1)), (b * n, c))
    gate = T.sigmoid(T.matmul(T.relu(T.matmul(flat, wa)), wout))
    return T.transpose(T.reshape(gate, (b, n, c)), (0, 2, 1))


def _vse(t: Tensor, params: AttentionParams) -> Tensor:
    """Coordinate-style gating: separate sigmoid gates per H and W position."""
    b, c, h, wdt = t.shape
    w = params.weights
    pooled_h = T.mean(t, axis=3)
    pooled_w = T.mean(t, axis=2)
    gate_h = _axis_gate(pooled_h, w["wa"], w["wh"])
    gate_w = _axis_gate(pooled_w, w["wa"], w["ww"])
    out = T.mul(T.mul(t, T.reshape(gate_h, (b, c, h, 1))), T.reshape(gate_w, (b, c, 1, wdt)))
    return out


_APPLY = {PA: _pa, SE1D: _se, SE2D: _se, VSE: _vse}


def apply_attention(t: Tensor, params: AttentionParams) -> Tensor:
    """Gate ``t``, which must have the rank of ``params.kind``."""
    axes = RANK[params.kind]
    if t.data.ndim != 2 + axes:
        layout = ("BxCxF", "BxCxHxW")[axes - 1]
        raise T.DimensionError(f"{params.kind} needs {layout} input, got {t.shape}")
    return _APPLY[params.kind](t, params)
