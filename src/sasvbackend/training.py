"""Training loop: bias-weighted cross entropy, Adam with inverse-time decay,
seeded epoch shuffling, and optional best-by-dev checkpoint selection.

The positive class (label 1) is the bonafide target trial; nontarget and
spoof trials are the negative class (label 0). Class weights default to
(0.1, 0.9), putting most of the loss mass on the rarer positive class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from ._mem import tune_malloc
from .data import EmbeddingStore, Trial, TrialRows, compile_trials
from .fusion import fuse_batch
from .metrics import ScoreSet, evaluate
from .models import Model
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-3
    weight_decay: float = 1e-3
    class_weights: tuple[float, float] = (0.1, 0.9)
    batch_size: int = 256
    epochs: int = 30
    schedule_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if min(self.class_weights) <= 0:
            raise ValueError("class weights must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.schedule_decay < 0 or self.weight_decay < 0:
            raise ValueError("decay constants must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Inverse-time decay per optimizer step: lr0 / (1 + decay * step)."""
    return cfg.lr0 / (1.0 + cfg.schedule_decay * step)


def weighted_cross_entropy(logits: Tensor, labels, class_weights) -> Tensor:
    """(1/B) * sum_i w[y_i] * (-log_softmax(logits_i)[y_i]), differentiable."""
    y = np.asarray(labels)
    if y.ndim != 1 or logits.data.ndim != 2 or y.size != logits.shape[0]:
        raise T.DimensionError(
            f"need Bx2 logits and B labels, got {logits.shape} and {y.shape}"
        )
    n_classes = logits.shape[1]
    if y.size == 0 or y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes}), got {sorted(set(y.tolist()))}")
    weights = np.asarray(class_weights, dtype=np.float64)
    logp = T.log_softmax(logits, axis=1)
    mask = np.zeros(logits.shape)
    mask[np.arange(y.size), y] = -weights[y] / y.size
    return T.sum_all(T.mul(logp, Tensor(mask)))


class Adam:
    """Adam (beta1=0.9, beta2=0.999, eps=1e-8) with bias correction and
    L2-coupled weight decay: decay is added to the gradient before the
    moment updates.

    ``step`` runs the backward pass of a tape and its loss, which updates
    each parameter as soon as its last gradient contribution is in
    (``Tape.backward``) and drops its gradient; a matmul weight with no
    other use is updated row block by row block as its gradient is made, so
    no whole gradient of it is held. If the backward raises, the parameters
    updated before that keep their new values.

    ``update`` is the one update path, and only ``Tape.backward`` calls it.
    It walks the parameter's flat data, gradient and moments in blocks of
    ``BLOCK`` elements with two scratch blocks and in-place ufuncs, so every
    block stays in cache instead of each operation making a full pass over
    memory. Per element it keeps the whole-array formula's operation order,
    so the result is bit-identical to it, whatever rows a call covers:
    ``g = grad + wd*p``; ``m = b1*m + (1-b1)*g``; ``v = b2*v + ((1-b2)*g)*g``;
    ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``.
    """

    BLOCK = 1 << 15

    def __init__(self, named_params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.named_params = list(named_params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(p.data.shape) for _, p in self.named_params]
        self.v = [np.zeros(p.data.shape) for _, p in self.named_params]
        self._index = {id(p): i for i, (_, p) in enumerate(self.named_params)}
        self._hyper = None  # (lr, weight decay, c1, c2) of the step in progress

    def step(self, lr: float, weight_decay: float, tape: T.Tape, loss: Tensor) -> None:
        self.t += 1
        self._hyper = (lr, weight_decay, 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t)
        try:
            tape.backward(loss, self)
        finally:
            self._hyper = None

    def update(self, p: Tensor, grad: np.ndarray | None, rows: slice = slice(None)) -> None:
        """Apply this step's update to ``p.data[rows]`` with its gradient
        ``grad`` (rows of a 2-D or larger parameter, or all of it)."""
        i = self._index[id(p)]
        name = self.named_params[i][0]
        if grad is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        if grad.shape != p.data[rows].shape:
            raise T.DimensionError(
                f"parameter {name!r} has shape {p.data[rows].shape} but its gradient {grad.shape}"
            )
        lr, weight_decay, c1, c2 = self._hyper
        b1, b2, eps = self.beta1, self.beta2, self.eps
        p.data = np.ascontiguousarray(p.data)
        flat_p, flat_g = p.data[rows].reshape(-1), np.ravel(grad)
        flat_m, flat_v = self.m[i][rows].reshape(-1), self.v[i][rows].reshape(-1)
        scratch_a, scratch_b = np.empty((2, min(self.BLOCK, flat_p.size)))
        for s in range(0, flat_p.size, self.BLOCK):
            blk = slice(s, s + self.BLOCK)
            pb, mb, vb = flat_p[blk], flat_m[blk], flat_v[blk]
            a, b = scratch_a[: pb.size], scratch_b[: pb.size]
            g = flat_g[blk]
            if weight_decay:
                np.multiply(weight_decay, pb, out=a)
                g = np.add(g, a, out=a)
            mb *= b1
            mb += np.multiply(1.0 - b1, g, out=b)
            vb *= b2
            np.multiply(1.0 - b2, g, out=b)
            vb += np.multiply(b, g, out=b)
            np.divide(mb, c1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            pb -= np.divide(a, b, out=a)


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    lr: float
    dev_sasv: float | None = None
    dev_spf: float | None = None
    dev_sv: float | None = None

    def format_line(self) -> str:
        parts = [f"epoch={self.epoch}", f"loss={self.mean_loss:.6f}", f"lr={self.lr:.6e}"]
        if self.dev_sasv is not None:
            parts.append(f"dev_sasv={self.dev_sasv:.3f}")
        if self.dev_spf is not None:
            parts.append(f"dev_spf={self.dev_spf:.3f}")
        if self.dev_sv is not None:
            parts.append(f"dev_sv={self.dev_sv:.3f}")
        return " ".join(parts)


@dataclass
class FitResult:
    logs: list[EpochLog] = field(default_factory=list)
    best_epoch: int | None = None


def _batches(n: int, batch_size: int, perm: np.ndarray):
    """Contiguous permutation chunks; a trailing singleton is folded into
    the previous chunk so batch norm always sees >= 2 rows."""
    chunks = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def score_trials(model: Model, trials: list[Trial] | TrialRows, store: EmbeddingStore,
                 batch_size: int = 256) -> np.ndarray:
    """Per-trial target probabilities in protocol order (eval mode).

    The bytes of the scores depend on ``batch_size``, not only on the model
    and the trials. OpenBLAS picks a product's kernel by its shape: a
    one-row product, and the two-column product of the output layer at any
    row count, give other bytes than the same rows inside the whole batch,
    so a CNN2D_SE scored at batch 1 differs from batch 90 by up to 4.4e-16
    (at batch 30 by 1.1e-16). Splitting a conv GEMM by columns, or a wider
    dense product into pieces of two or more rows, changes no byte. Scores
    are reproducible bit for bit only at the same batch size.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    mode = model.config.fusion_mode
    rows = compile_trials(store, trials)
    was_training = model.training
    model.eval()
    out = np.empty(len(rows))
    for i in range(0, len(rows), batch_size):
        batch = fuse_batch(store, rows[i : i + batch_size], mode)
        out[i : i + len(batch)] = model.score_batch(batch)
    if was_training:
        model.train()
    return out


def evaluate_trials(model: Model, trials: list[Trial] | TrialRows, store: EmbeddingStore,
                    batch_size: int = 256):
    rows = compile_trials(store, trials)
    scores = score_trials(model, rows, store, batch_size)
    ids = [f"t{i:06d}" for i in range(len(rows))]
    return evaluate(ScoreSet(ids, scores, rows.labels.tolist()))


def fit(
    model: Model,
    train_trials: list[Trial] | TrialRows,
    cfg: TrainConfig,
    store: EmbeddingStore,
    dev_trials: list[Trial] | TrialRows | None = None,
    select_best: bool | None = None,
) -> FitResult:
    """Train in place and return the per-epoch log.

    Both trial sets may be ``Trial`` lists or compiled ``TrialRows``; the
    two give the same checkpoint bytes. When dev trials are given they are
    scored after every epoch; with select_best (the default when a dev set
    is present, turn it off when dev was part of the training data) the
    parameters with the lowest dev SASV-EER are restored at the end,
    otherwise the final epoch stays.
    The model is returned in eval mode with no gradients held.

    Each step's Adam update runs inside its backward pass (``Adam.step``):
    a parameter is updated as soon as its gradient is complete, while the
    rules of earlier layers still run. An error in the middle of a backward
    pass can leave the parameters partly updated.
    """
    tune_malloc()
    if not train_trials:
        raise ValueError("no training trials")
    train_rows = compile_trials(store, train_trials)
    y = (train_rows.labels == "target").astype(np.intp)
    if y.min() == y.max():
        raise ValueError("training data must contain both classes")
    if select_best is None:
        select_best = dev_trials is not None

    mode = model.config.fusion_mode
    dev_rows = compile_trials(store, dev_trials) if dev_trials is not None else None
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.named_parameters())
    result = FitResult()
    best_eer = np.inf
    best_state = None
    n = len(train_rows)
    step = 0

    model.zero_grads()  # each backward leaves every parameter without a gradient
    model.train()
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        last_lr = lr_at(step, cfg)
        for idx in _batches(n, cfg.batch_size, perm):
            batch = fuse_batch(store, train_rows[idx], mode)
            with T.recording() as tape:
                logits = model.forward(batch)
                loss = weighted_cross_entropy(logits, y[idx], cfg.class_weights)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise RuntimeError(
                    f"non-finite loss {loss_value} at epoch {epoch}, step {step}"
                )
            last_lr = lr_at(step, cfg)
            optimizer.step(last_lr, cfg.weight_decay, tape, loss)
            total += loss_value * len(idx)
            step += 1

        log = EpochLog(epoch=epoch, mean_loss=total / n, lr=last_lr)
        if dev_rows is not None:
            report = evaluate_trials(model, dev_rows, store, cfg.batch_size)
            log.dev_sasv = report.sasv_eer
            log.dev_spf = report.spf_eer
            log.dev_sv = report.sv_eer
            if select_best and report.sasv_eer is not None and report.sasv_eer < best_eer:
                best_eer = report.sasv_eer
                best_state = model.state_arrays()
                result.best_epoch = epoch
        result.logs.append(log)

    model.eval()
    if select_best and best_state is not None:
        model.load_state_arrays(best_state)
    return result
