"""Built-in checks behind the `selftest` command: a table of ``(name, check)``.

Each check compares library calls with their reference in :mod:`sasvbackend.oracles`
on seeded cases and returns ``(ok, detail)``. A check that raises has failed. No test
harness is needed.
"""

import dataclasses
import os
import tempfile
import time
from unittest import mock

import numpy as np

from . import attention as att
from . import _lanes, data, fusion, metrics, models, oracles, training
from . import tensor as T
from .tensor import RunningStats, Tensor


def _worst(pairs, tol, label="max deviation"):
    worst = max(float(np.max(np.abs(np.subtract(got, ref)))) for got, ref in pairs)
    return worst < tol, f"{label} {worst:.3g}"


def _equal(same, what="parameter and running-statistic bytes"):
    return same, f"{what} {'equal' if same else 'differ'}"


def check_layer_gradients():
    rng = np.random.default_rng(0)
    cases = [  # (op, shapes of its random inputs, further tensors to check)
        (lambda x, w, b, g, be: T.conv_block(x, w, b, g, be, RunningStats(4), True),
         [(3, 3, 6), (4, 3, 3), 4, 4, 4], {}),
        (lambda x, w, b, g, be: T.conv_block(x, w, b, g, be, RunningStats(3), True),
         [(2, 2, 4, 4), (3, 2, 3, 3), 3, 3, 3], {}),
        (lambda x: T.adaptive_avg_pool(x, (3,)), [(2, 3, 10)], {}),
        (lambda x: T.adaptive_avg_pool(x, (2, 3)), [(2, 2, 5, 7)], {}),
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


def _block_bytes(x, w, vecs, g, training, budget):
    """Output, running stats and gradient bytes of one recorded conv_block
    whose im2col pieces, item chunks and dW runs alike, hold at most
    ``budget`` elements."""
    with mock.patch.multiple(T, _COLS_BUDGET=budget, _PIECE_BUDGET=budget):
        ts = [Tensor(a, requires_grad=True) for a in (x, w, *vecs)]
        stats = RunningStats(w.shape[0])
        with T.recording() as tape:
            out = T.conv_block(*ts, stats, training)
            loss = T.sum_all(T.mul(out, Tensor(g)))
        tape.backward(loss)
    return [a.tobytes() for a in (out.data, stats.mean, stats.var, *(t.grad for t in ts))]


def check_conv_block_chunks():
    """conv_block cut into four chunks (of batch items for the forward and
    dx, of input channels for dW) against one whole chunk, byte for byte:
    1D and 2D, train and eval mode, C-ordered and channel-major input. That
    a split keeps the bytes is a property of the BLAS, so it is checked on
    the one installed."""
    rng = np.random.default_rng(7)
    same = True
    for x_shape, cout in (((16, 64, 64), 64), ((12, 16, 16, 16), 32)):
        x = rng.uniform(-1, 1, x_shape)
        w = rng.uniform(-1, 1, (cout, x_shape[1]) + (3,) * (len(x_shape) - 2))
        vecs = [rng.uniform(-1, 1, cout) for _ in range(3)]
        g = _channel_major(rng.uniform(-1, 1, (x_shape[0], cout) + x_shape[2:]))
        cols = x.size * w[0, 0].size  # elements of the whole im2col matrix
        for training in (True, False):
            for layout in (np.asarray, _channel_major):
                whole, chunked = (_block_bytes(layout(x), w, vecs, g, training, budget)
                                  for budget in (cols, cols // 4))
                same &= whole == chunked
    return _equal(same, "output, running stats and gradient bytes")


def _toy(name):
    """A preset at toy size: a CNN gets few channels, a 4-wide pool and a
    (16, 8) DNN; a DNN stays as it is."""
    config = models.PRESETS[name]
    nd = len(config.pool_size)
    if not nd:
        return config
    return dataclasses.replace(config, conv_channels=(16, 8, 8) if nd == 1 else (8, 16, 16, 16),
                               pool_size=(4,) * nd, dnn_nodes=(16, 8))


def _toy_batch(rng, config, size):
    """A random fused batch of ``size`` trials for ``config`` at dims (16,
    16, 12), and labels."""
    nd = len(config.pool_size)
    x = rng.uniform(-1, 1, (size, 3) + (16,) * nd if nd else (size, 44))
    return x, np.resize([0, 1, 1, 0, 1, 0], size)


def _step_bytes(config, x, y, steps=1):
    """Parameter and running-statistic bytes after ``steps`` training steps
    on ``x``, ``y``."""
    model = models.build(config, (16, 16, 12), seed=9)
    optimizer = training.Adam(model.params.items())
    for _ in range(steps):
        with T.recording() as tape:
            logits = model.forward(x, training=True)
            loss = training.weighted_cross_entropy(logits, y, (0.1, 0.9))
        optimizer.step(1e-2, 1e-3, tape, loss)
    return [a.tobytes() for a in model.state_arrays().values()]


def check_training_step_lanes():
    """One training step of a toy CNN1D_SE and of a toy CNN2D_SE on two
    lanes (im2col, col2im, the conv blocks' epilogues and Adam spread over
    them, in blocks of 4096 elements, so that toy arrays spread) against one
    lane, byte for byte. That the lanes keep the bytes rests on numpy's
    reductions over blocks of channels, so it is checked on the one
    installed."""
    rng = np.random.default_rng(9)
    same = True
    for name in ("CNN1D_SE", "CNN2D_SE"):
        config = _toy(name)
        x, y = _toy_batch(rng, config, 6)
        runs = []
        for lanes in (1, 2):
            with mock.patch.multiple(_lanes, count=lambda: lanes, BLOCK=1 << 12):
                runs.append(_step_bytes(config, x, y))
        same &= runs[0] == runs[1]
    return _equal(same)


def check_training_step_recomputed():
    """One training step of toy CNN1D_SE, CNN1D_PA, CNN2D_SE and CNN2D_VSE
    as built, whose rules recompute each conv-block output and gated product
    from xhat (``tensor._Recipe``), against rules that hold every input
    array (``tensor._keep`` patched), byte for byte."""
    rng = np.random.default_rng(11)
    same = True
    for name in ("CNN1D_SE", "CNN1D_PA", "CNN2D_SE", "CNN2D_VSE"):
        config = _toy(name)
        x, y = _toy_batch(rng, config, 6)
        built = _step_bytes(config, x, y)
        with mock.patch.object(T, "_keep", lambda t: t.data):
            same &= built == _step_bytes(config, x, y)
    return _equal(same)


def check_blas_threads():
    """Three training steps of toy Extend512_DNN, CNN1D_SE and CNN2D_SE at
    batch 30, their GEMMs on one OpenBLAS thread and then on two, byte for
    byte. Ensemble members trained in one-thread processes would rely on
    it, and it is a property of the BLAS, so it is checked on the one
    installed; where two threads cannot be set, it is not checked."""
    if _lanes._set_threads is None:
        return True, "not checked: numpy's BLAS has no openblas_set_num_threads_local"
    rng = np.random.default_rng(12)
    old = _lanes._set_threads(2)
    try:
        if _lanes._set_threads(2) != 2:  # the count it returns is the one set before
            return True, "not checked: OpenBLAS cannot run 2 threads here"
        same = True
        for name in ("Extend512_DNN", "CNN1D_SE", "CNN2D_SE"):
            config = _toy(name)
            x, y = _toy_batch(rng, config, 30)
            runs = []
            for threads in (1, 2):
                _lanes._set_threads(threads)
                runs.append(_step_bytes(config, x, y, steps=3))
            same &= runs[0] == runs[1]
    finally:
        _lanes._set_threads(old)
    return _equal(same)


def check_score_batches():
    """An Extend512_DNN batch of 400 trials at dims (133, 133, 134) scored
    alone and as the first of two batches on two lanes, byte for byte. A
    lone batch runs its GEMMs on one OpenBLAS thread, as a lane does; this
    shape gives other bytes on two threads, and that one thread keeps them
    equal is a property of the BLAS, so it is checked on the one
    installed."""
    store, protocols = data.generate_synthetic(
        data.SynthConfig(d_spk=133, d_cm=134, eval_trials_per_label=267, seed=10))
    trials = protocols["eval"].trials[:800]
    model = models.build("Extend512_DNN", (133, 133, 134), seed=10)
    with mock.patch.multiple(_lanes, count=lambda: 2):
        alone, among = (training.score_trials(model, t, store, 400)[:400]
                        for t in (trials[:400], trials))
    return _equal(alone.tobytes() == among.tobytes(), "score bytes")


def check_embeddings_split():
    """An embedding file parsed in three byte ranges, two of them by child
    processes, against one pass: matrices and id order, byte for byte. A
    range whose child cannot start is parsed in this process with the same
    bytes, so the check fails unless both children ran: on a box where no
    child can start, the split is not in use."""
    rng = np.random.default_rng(8)
    store = data.EmbeddingStore(5, 3)
    for i in range(30):
        store.add(f"u{i:02d}", spk=rng.normal(size=5), cm=rng.normal(size=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        data.save_embeddings(store, path, comments=("selftest",))
        (whole, _), (split, children) = data._load(path, 1), data._load(path, 3)
    same = all(whole.matrix(k).tobytes() == split.matrix(k).tobytes()
               and list(whole._rows[k]) == list(split._rows[k]) for k in ("spk", "cm"))
    return same and children == 2, (f"matrices and ids {'equal' if same else 'differ'}, "
                                     f"{children} of 2 ranges parsed by a child")


def check_circulant():
    """``fusion.fuse_batch``'s circ2d channels of a one-utterance trial
    against the loop circulant of its stack1d channels, exactly, and their
    row sums, at D = 1 and at random dims up to 31."""
    rng = np.random.default_rng(2)
    trial = data.Trial(("u",), "u", "target")
    for d, q in [(1, 1), *rng.integers(1, 32, (20, 2)).tolist()]:
        store = data.EmbeddingStore(d, q)
        store.add("u", spk=rng.normal(size=d), cm=rng.normal(size=q))
        rows = data.compile_trials(store, [trial])
        stacked, circ = (fusion.fuse_batch(store, rows, mode)[0]
                         for mode in (fusion.STACK1D, fusion.CIRC2D))
        for v, mat in zip(stacked, circ):
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
    n = 4099  # crosses a block boundary of the blocked update at 4096
    p0, grads = rng.uniform(-1, 1, n), rng.uniform(-1, 1, (5, n))
    p = Tensor(p0.copy(), requires_grad=True)
    state = training.Adam([("p", p)])
    with mock.patch.multiple(_lanes, BLOCK=1 << 12):
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
    optimizer = training.Adam(live.params.items())
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
    return _equal(all(live.params[n].data.tobytes() == p.data.tobytes()
                      for n, p in ref.params.items()), "parameter bytes")


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
    ("conv-block-chunked-vs-whole", check_conv_block_chunks),
    ("training-step-lanes-vs-one", check_training_step_lanes),
    ("training-step-recomputed-vs-held", check_training_step_recomputed),
    ("training-one-vs-two-blas-threads", check_blas_threads),
    ("scores-one-batch-vs-two", check_score_batches),
    ("embeddings-split-vs-whole", check_embeddings_split),
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
