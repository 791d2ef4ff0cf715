"""Built-in checks behind the `selftest` command: a table of ``(name, check)``.

Each check compares library calls with their reference in :mod:`sasvbackend.oracles`
on seeded cases and returns ``(ok, detail)``. A check that raises has failed. No test
harness is needed.
"""

import time

import numpy as np

from . import attention as att
from . import fusion, metrics, models, oracles, training
from . import tensor as T
from .tensor import RunningStats, Tensor


def _worst(pairs, tol, label="max deviation"):
    worst = max(float(np.max(np.abs(np.subtract(got, ref)))) for got, ref in pairs)
    return worst < tol, f"{label} {worst:.3g}"


def check_layer_gradients():
    rng = np.random.default_rng(0)
    cases = [  # (op, shapes of its random inputs, further tensors to check)
        (lambda x, w, b, g, be: T.conv_block(x, w, b, g, be, RunningStats(4), True),
         [(3, 3, 6), (4, 3, 3), 4, 4, 4], {}),
        (lambda x, w, b, g, be: T.conv_block(x, w, b, g, be, RunningStats(3), True),
         [(2, 2, 4, 4), (3, 2, 3, 3), 3, 3, 3], {}),
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


def _channel_major(x):
    """``x`` stored channel-major, the layout of a conv's output, whose batch
    and spatial axes merge into one run per channel."""
    cm = (1, 0) + tuple(range(2, x.ndim))
    return np.ascontiguousarray(x.transpose(cm)).transpose(cm)


def check_conv_block(conv_loops, x_shape):
    """conv_block against the conv, batch-norm and LeakyReLU loop oracles:
    output and running stats, k = 3 and 5, train and eval mode, C-ordered
    and channel-major input."""
    rng = np.random.default_rng(1)
    pairs = []
    for k in (3, 5):
        w_shape = (4, x_shape[1]) + (k,) * (len(x_shape) - 2)
        x, w, b, gamma, beta, mean = (rng.uniform(-1, 1, s) for s in (x_shape, w_shape, 4, 4, 4, 4))
        var = rng.uniform(0.5, 1.5, 4)
        for training in (True, False):
            bn, want_mean, want_var = oracles.batch_norm_loops(
                conv_loops(x, w, b), gamma, beta, mean, var, training)
            want = oracles.leaky_relu_loops(bn)
            for layout in (np.asarray, _channel_major):
                stats = RunningStats(4)
                stats.mean, stats.var = mean.copy(), var.copy()
                got = T.conv_block(Tensor(layout(x)), Tensor(w), Tensor(b), Tensor(gamma),
                                   Tensor(beta), stats, training)
                pairs += [(got.data, want), (stats.mean, want_mean), (stats.var, want_var)]
    return _worst(pairs, 1e-12)


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
        with T.recording() as tape:  # the gradient of sum(p * g) is exactly g
            loss = T.sum_all(T.mul(p, Tensor(g)))
        state.step(1e-2, 1e-3, tape, loss)
    return _worst([(p.data, oracles.adam_sequence_loops(p0, grads, [1e-2] * 5, 1e-3))], 1e-12)


def check_adam_in_backward():
    """Three Adam steps taken inside the backward pass of a small DNN, with
    fc0's gradient handed over in row blocks, against a plain backward and
    the whole-array oracle, byte for byte."""
    rng = np.random.default_rng(6)
    config = models.ModelConfig(name="selftest", fusion_mode=fusion.CONCAT, dnn_nodes=(8, 4))
    live, ref = (models.build(config, (5, 5, 4), seed=6) for _ in range(2))
    x, y = rng.uniform(-1, 1, (6, 14)), np.array([0, 1, 1, 0, 1, 0])
    moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.params.items()}
    optimizer = training.Adam(live.named_parameters())
    for t, lr in enumerate((1e-2, 5e-3, 2e-3), start=1):
        tapes = T.Tape(), T.Tape()
        tapes[1].ROW_BLOCK = 16  # fc0.w (14 x 8) goes over in 7 blocks of 2 rows
        losses = []
        for model, tape in zip((ref, live), tapes):
            with T.recording(tape):
                logits = model.forward(x)
                losses.append(training.weighted_cross_entropy(logits, y, (0.1, 0.9)))
        tapes[0].backward(losses[0])
        for name, p in ref.params.items():
            oracles.adam_whole_array(p.data, *moments[name], p.grad, t, lr, 1e-3)
            p.zero_grad()
        optimizer.step(lr, 1e-3, tapes[1], losses[1])
    same = all(live.params[n].data.tobytes() == p.data.tobytes() for n, p in ref.params.items())
    return same, f"parameter bytes {'equal' if same else 'differ'}"


def check_cross_entropy():
    rng = np.random.default_rng(5)
    z, y, w = rng.uniform(-8, 8, (16, 2)), rng.integers(0, 2, 16), (0.1, 0.9)
    return _worst([(training.weighted_cross_entropy(Tensor(z), y, w).item(),
                    oracles.weighted_ce_loop(z, y, w))], 1e-12, "deviation")


CHECKS = [
    ("layer-gradients-vs-finite-differences", check_layer_gradients),
    ("conv-block-1d-vs-loop-oracles", lambda: check_conv_block(oracles.conv1d_loops, (2, 3, 8))),
    ("conv-block-2d-vs-loop-oracles",
     lambda: check_conv_block(oracles.conv2d_loops, (2, 3, 6, 5))),
    ("circulant-algebra", check_circulant),
    ("eer-vs-exhaustive-threshold-oracle", check_eer),
    ("adam-vs-scalar-reference", check_adam),
    ("adam-in-backward-vs-whole-array", check_adam_in_backward),
    ("weighted-cross-entropy-vs-loop", check_cross_entropy),
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
