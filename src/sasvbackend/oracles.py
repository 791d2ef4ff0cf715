"""Independent reference implementations used to cross-check the library.

The tests and ``selftest`` both import this module, so each reference exists
once. Everything here is deliberately written as plain index loops (or
scalar arithmetic) so it shares no code path with what it checks. Slow and
obvious on purpose. Two exceptions: ``finite_difference_check`` needs the
tape to obtain the gradients under test, but its numeric side only
re-evaluates the forward pass; ``adam_whole_array`` is the whole-array
formula, because the blocked Adam update must match its bytes, not only
its values.

Only ``math``, ``numpy`` and ``sasvbackend.tensor`` are imported: ``selftest``
must run without the test extras.
"""

import math

import numpy as np

from . import tensor as T


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def conv1d_loops(x, w, bias):
    """The same-size conv: stride 1, odd kernel k, zero padding k // 2."""
    b, cin, length = x.shape
    cout, _, k = w.shape
    out = np.zeros((b, cout, length))
    for bi in range(b):
        for co in range(cout):
            for lo in range(length):
                acc = bias[co]
                for ci in range(cin):
                    for ki in range(k):
                        src = lo + ki - k // 2
                        if 0 <= src < length:
                            acc += x[bi, ci, src] * w[co, ci, ki]
                out[bi, co, lo] = acc
    return out


def conv2d_loops(x, w, bias):
    """The same-size conv: stride 1, odd square kernel k, zero padding k // 2."""
    b, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    out = np.zeros((b, cout, h, wd))
    for bi in range(b):
        for co in range(cout):
            for ho in range(h):
                for wo in range(wd):
                    acc = bias[co]
                    for ci in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                si = ho + ki - k // 2
                                sj = wo + kj - k // 2
                                if 0 <= si < h and 0 <= sj < wd:
                                    acc += x[bi, ci, si, sj] * w[co, ci, ki, kj]
                    out[bi, co, ho, wo] = acc
    return out


def batch_norm_loops(x, gamma, beta, mean, var, training, momentum=0.1, eps=1e-5):
    """Per-channel batch norm of a BxCx... array: the output and the new
    running mean and variance. Training mode normalizes with the batch mean
    and biased variance over the batch and spatial positions and moves the
    running values toward them; eval mode normalizes with the running
    values and leaves them as they are."""
    b, c = x.shape[:2]
    rows = x.reshape(b, c, -1)
    out = np.zeros(rows.shape)
    mean, var = [float(v) for v in mean], [float(v) for v in var]
    for ci in range(c):
        values = [rows[bi, ci, p] for bi in range(b) for p in range(rows.shape[2])]
        mu, sigma2 = mean[ci], var[ci]
        if training:
            mu = sum(values) / len(values)
            sigma2 = sum((v - mu) ** 2 for v in values) / len(values)
            mean[ci] = (1.0 - momentum) * mean[ci] + momentum * mu
            var[ci] = (1.0 - momentum) * var[ci] + momentum * sigma2
        for bi in range(b):
            for p in range(rows.shape[2]):
                xhat = (rows[bi, ci, p] - mu) / math.sqrt(sigma2 + eps)
                out[bi, ci, p] = gamma[ci] * xhat + beta[ci]
    return out.reshape(x.shape), np.array(mean), np.array(var)


def leaky_relu_factor(v):
    """The LeakyReLU factor of one value: its output is ``v`` times this."""
    return 1.0 if v >= 0 else 0.01


def leaky_relu_loops(x):
    out = np.zeros(x.shape)
    for idx in np.ndindex(x.shape):
        out[idx] = x[idx] * leaky_relu_factor(x[idx])
    return out


def pool_bins(length, out):
    return [(i * length // out, math.ceil((i + 1) * length / out)) for i in range(out)]


def adaptive_pool1d_loops(x, out_len):
    b, c, length = x.shape
    out = np.zeros((b, c, out_len))
    for bi in range(b):
        for ci in range(c):
            for i, (s, e) in enumerate(pool_bins(length, out_len)):
                acc = 0.0
                for p in range(s, e):
                    acc += x[bi, ci, p]
                out[bi, ci, i] = acc / (e - s)
    return out


def adaptive_pool2d_loops(x, oh, ow):
    b, c, h, w = x.shape
    out = np.zeros((b, c, oh, ow))
    for bi in range(b):
        for ci in range(c):
            for i, (hs, he) in enumerate(pool_bins(h, oh)):
                for j, (ws, we) in enumerate(pool_bins(w, ow)):
                    acc = 0.0
                    for p in range(hs, he):
                        for q in range(ws, we):
                            acc += x[bi, ci, p, q]
                    out[bi, ci, i, j] = acc / ((he - hs) * (we - ws))
    return out


def softmax_prob1_loop(logits):
    out = np.zeros(logits.shape[0])
    for i in range(logits.shape[0]):
        m = max(logits[i, 0], logits[i, 1])
        e0 = math.exp(logits[i, 0] - m)
        e1 = math.exp(logits[i, 1] - m)
        out[i] = e1 / (e0 + e1)
    return out


def weighted_ce_loop(logits, labels, weights):
    total = 0.0
    for i in range(logits.shape[0]):
        m = max(logits[i, 0], logits[i, 1])
        logz = m + math.log(math.exp(logits[i, 0] - m) + math.exp(logits[i, 1] - m))
        logp = logits[i, labels[i]] - logz
        total += weights[labels[i]] * (-logp)
    return total / logits.shape[0]


def adam_sequence_loops(param0, grads, lrs, weight_decay,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Apply Adam steps to a flat parameter vector; grads is a list of
    per-step gradient vectors, lrs the per-step learning rates."""
    p = [float(v) for v in param0]
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    for t, (g_vec, lr) in enumerate(zip(grads, lrs), start=1):
        for i in range(len(p)):
            g = g_vec[i] + weight_decay * p[i]
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            mhat = m[i] / (1 - beta1**t)
            vhat = v[i] / (1 - beta2**t)
            p[i] = p[i] - lr * mhat / (math.sqrt(vhat) + eps)
    return np.array(p)


def adam_whole_array(p, m, v, grad, t, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step ``t`` on whole arrays, in place: the formula whose bytes the
    blocked, in-backward update of ``training.Adam`` must reproduce."""
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    g = grad + weight_decay * p if weight_decay else grad
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def eer_bruteforce(pos, neg):
    """EER by evaluating FAR/FRR (accept when score >= threshold) at every
    distinct score and above the top one, and interpolating the crossing.

    Every threshold in (a, b] between consecutive distinct scores a < b gives
    the counts of b, so b stands for the gap; a midpoint would round onto a
    when a and b are adjacent floats (0.0 and 5e-324)."""
    pos = [float(x) for x in pos]
    neg = [float(x) for x in neg]
    thresholds = sorted(set(pos) | set(neg)) + [math.inf]

    points = []
    for t in thresholds:
        far = sum(1 for s in neg if s >= t) / len(neg)
        frr = sum(1 for s in pos if s < t) / len(pos)
        points.append((far, frr))

    prev_far, prev_frr = points[0]
    for far, frr in points[1:]:
        if far - frr <= 0:
            if far == frr:
                return far
            prev_diff = prev_far - prev_frr
            frac = prev_diff / (prev_diff - (far - frr))
            return prev_far + frac * (far - prev_far)
        prev_far, prev_frr = far, frr
    raise AssertionError("no crossing found")


def circulant_loops(v):
    n = len(v)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = v[(j - i) % n]
    return out


def fuse_trials_loop(spk, cm, trials, mode):
    """Per-trial fusion of (enroll_ids, test_id) pairs over id -> vector
    dicts: np.mean over the enrollment vectors, then concatenation, right
    zero-padding and circulant matrices one trial at a time."""
    out = []
    for enroll_ids, test_id in trials:
        vecs = [np.mean([spk[e] for e in enroll_ids], axis=0), spk[test_id], cm[test_id]]
        if mode == "concat":
            out.append(np.concatenate(vecs))
            continue
        common = max(v.size for v in vecs)
        padded = [np.concatenate([v, np.zeros(common - v.size)]) for v in vecs]
        if mode == "circ2d":
            padded = [circulant_loops(v) for v in padded]
        out.append(np.stack(padded))
    return np.stack(out)


def sigmoid_scalar(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def pa_reference(t, w1, w2, w3, w4):
    """Parallel attention via explicit loops: channel/feature mean pooling,
    two-layer sigmoid gates, both gates multiplying the input."""
    b, c, f = t.shape
    fr = w1.shape[1]
    cr = w3.shape[1]
    out = np.zeros_like(t)
    for bi in range(b):
        pool_f = [sum(t[bi, ci, fi] for ci in range(c)) / c for fi in range(f)]
        pool_c = [sum(t[bi, ci, fi] for fi in range(f)) / f for ci in range(c)]
        hid_f = [sum(pool_f[fi] * w1[fi, r] for fi in range(f)) for r in range(fr)]
        gate_f = [
            sigmoid_scalar(sum(hid_f[r] * w2[r, fi] for r in range(fr)))
            for fi in range(f)
        ]
        hid_c = [sum(pool_c[ci] * w3[ci, r] for ci in range(c)) for r in range(cr)]
        gate_c = [
            sigmoid_scalar(sum(hid_c[r] * w4[r, ci] for r in range(cr)))
            for ci in range(c)
        ]
        for ci in range(c):
            for fi in range(f):
                out[bi, ci, fi] = gate_c[ci] * t[bi, ci, fi] * gate_f[fi]
    return out


def _se_gate(squeeze, wa, wb):
    cr = wa.shape[1]
    c = wa.shape[0]
    hid = [max(0.0, sum(squeeze[ci] * wa[ci, r] for ci in range(c))) for r in range(cr)]
    return [
        sigmoid_scalar(sum(hid[r] * wb[r, ci] for r in range(cr))) for ci in range(c)
    ]


def se1d_reference(t, wa, wb):
    b, c, f = t.shape
    out = np.zeros_like(t)
    for bi in range(b):
        squeeze = [sum(t[bi, ci, fi] for fi in range(f)) / f for ci in range(c)]
        gate = _se_gate(squeeze, wa, wb)
        for ci in range(c):
            for fi in range(f):
                out[bi, ci, fi] = t[bi, ci, fi] * gate[ci]
    return out


def se2d_reference(t, wa, wb):
    b, c, h, w = t.shape
    out = np.zeros_like(t)
    for bi in range(b):
        squeeze = [
            sum(t[bi, ci, hi, wi] for hi in range(h) for wi in range(w)) / (h * w)
            for ci in range(c)
        ]
        gate = _se_gate(squeeze, wa, wb)
        for ci in range(c):
            for hi in range(h):
                for wi in range(w):
                    out[bi, ci, hi, wi] = t[bi, ci, hi, wi] * gate[ci]
    return out


def vse_reference(t, wa, wh, ww):
    b, c, h, w = t.shape
    out = np.zeros_like(t)
    for bi in range(b):
        gates_h = []
        for hi in range(h):
            squeeze = [sum(t[bi, ci, hi, wi] for wi in range(w)) / w for ci in range(c)]
            gates_h.append(_se_gate(squeeze, wa, wh))
        gates_w = []
        for wi in range(w):
            squeeze = [sum(t[bi, ci, hi, wi] for hi in range(h)) / h for ci in range(c)]
            gates_w.append(_se_gate(squeeze, wa, ww))
        for ci in range(c):
            for hi in range(h):
                for wi in range(w):
                    out[bi, ci, hi, wi] = (
                        t[bi, ci, hi, wi] * gates_h[hi][ci] * gates_w[wi][ci]
                    )
    return out


def finite_difference_check(make_loss, tensors, h=1e-6):
    """Worst relative error between tape gradients and central differences.

    `tensors` maps names to the tensors to check; `make_loss` must rebuild the
    scalar loss from their current data. Relative error uses
    max(1, |analytic|, |numeric|) as denominator.
    """
    for t in tensors.values():
        t.zero_grad()
    with T.recording() as tape:
        loss = make_loss()
    tape.backward(loss)
    worst = 0.0
    for name, t in tensors.items():
        assert t.grad is not None, f"{name} missing gradient after backward"
        analytic = t.grad.copy()
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = make_loss().item()
            flat[i] = orig - h
            down = make_loss().item()
            flat[i] = orig
            nflat[i] = (up - down) / (2 * h)
        err = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(err.max()))
    return worst


def random_projection_loss(out, rng):
    """Project an op output to a scalar with fixed random coefficients so the
    finite-difference check exercises every output element."""
    proj = T.Tensor(rng.uniform(-1.0, 1.0, out.shape))
    return T.sum_all(T.mul(out, proj))
