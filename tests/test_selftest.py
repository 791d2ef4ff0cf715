import itertools
import sys

import numpy as np
import pytest

from sasvbackend import _lanes, fusion, metrics, selftest, training
from sasvbackend import tensor as T


def _transposed_circulant(orig):
    return lambda n: orig(n).T


def _offset_eer(orig):
    def eer(pos, neg):
        value, threshold = orig(pos, neg)
        return value + 1e-6, threshold
    return eer


def _doubled_adam_step(orig):
    return lambda self, lr, weight_decay, tape, loss: orig(self, 2 * lr, weight_decay, tape, loss)


def _update_ignoring_rows(orig):
    return lambda self, p, grad, rows=slice(None): orig(self, p, grad)


def _conv_without_bias(orig):
    # Batch norm removes a bias in training mode, so only the eval rows see it.
    return lambda x, w, bias, *rest: orig(x, w, T.Tensor(np.zeros_like(bias.data)), *rest)


def _no_leaky_relu_factor(orig):
    # conv_block's backward takes its LeakyReLU factor from this helper.
    return lambda g, nonneg: g * 1.0


class _KSplitNumpy:
    """numpy, except that a product written into some columns of a larger
    array sums the two halves of its reduction axis: a conv block whose
    chunks split K instead of N."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def matmul(a, b, out=None):
        if out is None or out.flags.c_contiguous:
            return np.matmul(a, b, out=out)
        half = a.shape[-1] // 2
        np.matmul(a[:, :half], b[:half], out=out)
        out += a[:, half:] @ b[half:]
        return out


def _c_ordered_zeros(orig):
    # A conv block's dx in C order, not in the layout of the input it recomputes.
    return lambda self: np.zeros(self.shape)


def _every_lane_from_the_first_item(orig):
    # Each lane runs items 0, n, 2n, ...: some items twice, others never.
    return lambda self, first: orig(self, 0)


def _unpinned(orig):
    # A lone scoring batch keeps OpenBLAS's thread count.
    return lambda fn, items, pin=False: orig(fn, items)


def _scaled_ce_weights(orig):
    return lambda logits, labels, weights: orig(logits, labels, [1.01 * v for v in weights])


BREAKS = {
    "circulant-algebra": (fusion, "_circulant_index", _transposed_circulant),
    "eer-vs-exhaustive-threshold-oracle": (metrics, "eer", _offset_eer),
    "adam-vs-scalar-reference": (training.Adam, "step", _doubled_adam_step),
    "adam-in-backward-vs-whole-array": (training.Adam, "update", _update_ignoring_rows),
    "layer-gradients-vs-finite-differences": (T, "_leaky_relu_grad", _no_leaky_relu_factor),
    "conv-block-1d-vs-loop-oracles": (T, "conv_block", _conv_without_bias),
    "conv-block-2d-vs-loop-oracles": (T, "_MOMENTUM", lambda momentum: 2 * momentum),
    "conv-block-chunked-vs-whole": (T, "np", lambda numpy: _KSplitNumpy()),
    "training-step-lanes-vs-one": (_lanes._Run, "lane", _every_lane_from_the_first_item),
    "training-step-recomputed-vs-held": (T._Recipe, "zeros", _c_ordered_zeros),
    "scores-one-batch-vs-two": (_lanes, "run", _unpinned),
    # no child can start, so every range is parsed in process
    "embeddings-split-vs-whole": (sys, "executable", lambda executable: ""),
    "weighted-cross-entropy-vs-loop": (training, "weighted_cross_entropy", _scaled_ce_weights),
}


def run_rows(monkeypatch, names):
    """``selftest.run`` over the rows ``names`` only: its result and lines."""
    rows = dict(selftest.CHECKS)
    monkeypatch.setattr(selftest, "CHECKS", [(name, rows[name]) for name in names])
    lines = []
    return selftest.run(out=lines.append), lines


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_broken_library_call_fails_its_check(monkeypatch, name):
    owner, attr, breaker = BREAKS[name]
    monkeypatch.setattr(owner, attr, breaker(getattr(owner, attr)))
    ok, lines = run_rows(monkeypatch, [name])
    assert ok is False
    assert lines[0].startswith(f"FAIL {name} ("), lines


def test_run_reports_each_row_and_fails_on_one(monkeypatch):
    """The whole run: one line per row, in order, and False when one fails."""
    name = "eer-vs-exhaustive-threshold-oracle"
    owner, attr, breaker = BREAKS[name]
    monkeypatch.setattr(owner, attr, breaker(getattr(owner, attr)))
    lines = []
    assert selftest.run(out=lines.append) is False
    assert [line.split()[1] for line in lines] == [row for row, _ in selftest.CHECKS]
    assert [line for line in lines if line.startswith("FAIL")] == [
        line for line in lines if line.startswith(f"FAIL {name} (")], lines


def test_check_names():
    assert [name for name, _ in selftest.CHECKS] == [
        "layer-gradients-vs-finite-differences",
        "conv-block-1d-vs-loop-oracles",
        "conv-block-2d-vs-loop-oracles",
        "conv-block-chunked-vs-whole",
        "training-step-lanes-vs-one",
        "training-step-recomputed-vs-held",
        "training-one-vs-two-blas-threads",
        "scores-one-batch-vs-two",
        "embeddings-split-vs-whole",
        "circulant-algebra",
        "eer-vs-exhaustive-threshold-oracle",
        "adam-vs-scalar-reference",
        "adam-in-backward-vs-whole-array",
        "weighted-cross-entropy-vs-loop",
    ]


def test_conv_rows_check_channel_major_input(monkeypatch):
    """Only a channel-major input reads its shifted runs in place (the
    C-ordered cases have more than one channel and go through a flat copy),
    so a flat view in the wrong channel order fails the conv rows only
    through their channel-major cases."""
    orig = T._flat

    def reversed_channels(xc):
        flat = orig(xc)
        return None if flat is None else flat[::-1]

    monkeypatch.setattr(T, "_flat", reversed_channels)
    names = ["conv-block-1d-vs-loop-oracles", "conv-block-2d-vs-loop-oracles"]
    ok, lines = run_rows(monkeypatch, names)
    assert ok is False
    assert [line.split(" (")[0] for line in lines] == [f"FAIL {name}" for name in names], lines


@pytest.mark.parametrize("set_threads", [None, lambda n: 1], ids=["no-setter", "one-thread"])
def test_blas_row_not_checked_without_two_threads(monkeypatch, set_threads):
    monkeypatch.setattr(_lanes, "_set_threads", set_threads)
    ok, detail = selftest.check_blas_threads()
    assert ok and detail.startswith("not checked: "), detail


@pytest.mark.skipif(_lanes._set_threads is None, reason="needs openblas_set_num_threads_local")
def test_blas_row_reports_differing_bytes(monkeypatch):
    """Bytes that differ between one and two threads fail the row."""
    calls = itertools.count()
    monkeypatch.setattr(selftest, "_step_bytes", lambda *args, **kwargs: [next(calls)])
    assert selftest.check_blas_threads() == (False, "parameter and running-statistic bytes differ")
