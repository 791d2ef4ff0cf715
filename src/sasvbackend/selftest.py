"""Built-in checks behind the `selftest` command: a table of ``(name, check)``.

Each check compares library calls with their reference in :mod:`sasvbackend.oracles`
on seeded cases and returns ``(ok, detail)``; ``batch-norm-moments`` is an invariant
with no oracle. A check that raises has failed. No test harness is needed.
"""

import time

import numpy as np

from . import attention as att
from . import fusion, metrics, oracles, training
from . import tensor as T
from .tensor import RunningStats, Tensor


def _worst(pairs, tol, label="max deviation"):
    worst = max(float(np.max(np.abs(np.subtract(got, ref)))) for got, ref in pairs)
    return worst < tol, f"{label} {worst:.3g}"


def check_layer_gradients():
    rng = np.random.default_rng(0)
    cases = [  # (op, shapes of its random inputs, further tensors to check)
        (lambda x, w, b: T.conv1d(x, w, b, 1, 1), [(2, 3, 6), (4, 3, 3), 4], {}),
        (lambda x, w, b: T.conv2d(x, w, b, 1, 1), [(2, 2, 5, 5), (3, 2, 3, 3), 3], {}),
        (lambda x, g, b: T.batch_norm(x, g, b, RunningStats(3), True), [(4, 3, 5), 3, 3], {}),
        (lambda x: T.adaptive_avg_pool1d(x, 3), [(2, 3, 10)], {}),
        (lambda x: T.adaptive_avg_pool2d(x, (2, 3)), [(2, 2, 5, 7)], {}),
    ]
    for kind, shape in ((att.PA, (2, 3, 4)), (att.SE1D, (2, 3, 4)),
                        (att.SE2D, (2, 3, 3, 4)), (att.VSE, (2, 3, 3, 4))):
        p = att.AttentionParams.init(kind, rng, channels=3, features=4, reduction=2)
        cases.append((lambda x, p=p: att.apply_attention(x, p), [shape], p.weights))
    worst = 0.0
    for op, shapes, fixed in cases:
        ts = [Tensor(rng.uniform(-1, 1, s), requires_grad=True) for s in shapes]
        worst = max(worst, oracles.finite_difference_check(
            lambda: oracles.random_projection_loss(op(*ts), np.random.default_rng(1)),
            {**{f"arg{i}": t for i, t in enumerate(ts)}, **fixed}))
    return worst < 1e-6, f"max relative gradient error {worst:.3g}"


def check_conv(conv, oracle, x_shape):
    rng = np.random.default_rng(1)
    w_shape = (4, x_shape[1]) + (3,) * (len(x_shape) - 2)
    cases = [(*(rng.uniform(-1, 1, s) for s in (x_shape, w_shape, 4)), st, pad)
             for st, pad in ((1, 1), (1, 0), (2, 1), (2, 2), (1, 2))]
    return _worst(((conv(Tensor(x), Tensor(w), Tensor(b), st, pad).data,
                    oracle(x, w, b, st, pad)) for x, w, b, st, pad in cases), 1e-12)


def check_circulant():
    rng = np.random.default_rng(2)
    for v in (rng.normal(size=int(rng.integers(1, 32))) for _ in range(20)):
        mat = fusion.circulant(v)
        if not (np.array_equal(mat, oracles.circulant_loops(v))
                and np.allclose(mat.sum(axis=1), v.sum(), atol=1e-9)):
            return False, f"loop oracle or row sums broken at D={v.size}"
    return True, "matches the loop oracle and row sums hold"


def check_eer():
    rng = np.random.default_rng(3)
    cases = [np.split(np.round(rng.uniform(0, 1, n_pos + n_neg), rng.integers(1, 4)), [n_pos])
             for n_pos, n_neg in rng.integers(1, 80, (40, 2))]
    return _worst(((metrics.eer(pos, neg)[0], oracles.eer_bruteforce(pos, neg))
                   for pos, neg in cases), 1e-9, "max |library - bruteforce| =")


def check_adam():
    rng = np.random.default_rng(4)
    n = training.Adam.BLOCK + 3  # crosses a block boundary of the blocked update
    p0, grads = rng.uniform(-1, 1, n), rng.uniform(-1, 1, (5, n))
    p = Tensor(p0.copy(), requires_grad=True)
    state = training.Adam([("p", p)])
    for g in grads:
        p.grad = g.copy()
        state.step(lr=1e-2, weight_decay=1e-3)
    return _worst([(p.data, oracles.adam_sequence_loops(p0, grads, [1e-2] * 5, 1e-3))], 1e-12)


def check_cross_entropy():
    rng = np.random.default_rng(5)
    z, y, w = rng.uniform(-8, 8, (16, 2)), rng.integers(0, 2, 16), (0.1, 0.9)
    return _worst([(training.weighted_cross_entropy(Tensor(z), y, w).item(),
                    oracles.weighted_ce_loop(z, y, w))], 1e-12, "deviation")


def check_batch_norm_moments():
    x = np.random.default_rng(6).uniform(-1, 1, (8, 4, 6))
    out = T.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), RunningStats(4), True)
    mean, var = np.abs(out.data.mean(axis=(0, 2))).max(), x.var(axis=(0, 2))
    var_err = np.abs(out.data.var(axis=(0, 2)) - var / (var + 1e-5)).max()
    return mean < 1e-9 and var_err < 1e-6, f"|mean|={mean:.2g}, var deviation={var_err:.2g}"


CHECKS = [
    ("layer-gradients-vs-finite-differences", check_layer_gradients),
    ("conv1d-vs-loop-oracle", lambda: check_conv(T.conv1d, oracles.conv1d_loops, (2, 3, 8))),
    ("conv2d-vs-loop-oracle", lambda: check_conv(T.conv2d, oracles.conv2d_loops, (2, 3, 6, 5))),
    ("circulant-algebra", check_circulant),
    ("eer-vs-exhaustive-threshold-oracle", check_eer),
    ("adam-vs-scalar-reference", check_adam),
    ("weighted-cross-entropy-vs-loop", check_cross_entropy),
    ("batch-norm-moments", check_batch_norm_moments),
]


def run(out=print) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= bool(ok)
        out(f"{'ok' if ok else 'FAIL':4s} {name} ({detail}, {time.perf_counter() - start:.2f}s)")
    return all_ok
