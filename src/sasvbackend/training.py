"""Training loop: bias-weighted cross entropy, Adam with inverse-time decay,
seeded epoch shuffling, and optional best-by-dev checkpoint selection.

The positive class (label 1) is the bonafide target trial; nontarget and
spoof trials are the negative class (label 0). Class weights default to
(0.1, 0.9), putting most of the loss mass on the rarer positive class.

``TrainConfig`` is the whole training recipe. A run file's keys are its
fields plus the preset and the paths (``cli.ExperimentConfig``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _lanes
from . import tensor as T
from ._mem import tune_malloc
from .data import EmbeddingStore, Protocol, Trial, TrialRows, compile_trials, numbered_trial_ids
from .fusion import fuse_batch
from .metrics import EerReport, ScoreSet, evaluate
from .models import Model, softmax_scores
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    """How one model is trained; ``select_best`` applies only with dev trials."""

    lr0: float = 1e-3
    weight_decay: float = 1e-3
    class_weight_negative: float = 0.1
    class_weight_positive: float = 0.9
    batch_size: int = 256
    epochs: int = 30
    schedule_decay: float = 1e-4
    seed: int = 0
    select_best: bool = True

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

    @property
    def class_weights(self) -> tuple[float, float]:
        return self.class_weight_negative, self.class_weight_positive


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
    It walks the parameter's flat data, gradient and moments in blocks with
    two scratch blocks and in-place ufuncs, so every block stays in cache
    instead of each operation making a full pass over memory. The blocks,
    of ``_lanes.BLOCK`` (64K) elements, go to ``_lanes.run`` like the conv
    blocks' passes, and each makes its own two scratch blocks. Per
    element it keeps the whole-array formula's operation order, so the
    result is bit-identical to it, whatever rows a call covers and
    whichever lane takes a block: ``g = grad + wd*p``; ``m = b1*m + (1-b1)*g``;
    ``v = b2*v + ((1-b2)*g)*g``; ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``.
    If an update raises (an overflow under ``errstate``), the lanes may
    already have updated blocks after the failing one.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params):
        self.named_params = list(named_params)
        self.t = 0
        self.m = [np.zeros(p.data.shape) for _, p in self.named_params]
        self.v = [np.zeros(p.data.shape) for _, p in self.named_params]
        self._index = {id(p): i for i, (_, p) in enumerate(self.named_params)}
        self._hyper = None  # (lr, weight decay, c1, c2) of the step in progress

    def step(self, lr: float, weight_decay: float, tape: T.Tape, loss: Tensor) -> None:
        self.t += 1
        self._hyper = (lr, weight_decay, 1.0 - self.BETA1**self.t, 1.0 - self.BETA2**self.t)
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
        b1, b2, eps = self.BETA1, self.BETA2, self.EPS
        p.data = np.ascontiguousarray(p.data)
        flat_p, flat_g = p.data[rows].reshape(-1), np.ravel(grad)
        flat_m, flat_v = self.m[i][rows].reshape(-1), self.v[i][rows].reshape(-1)
        block = _lanes.BLOCK

        def update_block(s: int) -> None:
            blk = slice(s, s + block)
            pb, mb, vb = flat_p[blk], flat_m[blk], flat_v[blk]
            a, b = np.empty((2, pb.size))
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

        _lanes.run(update_block, range(0, flat_p.size, block))


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    lr: float
    dev: EerReport | None = None

    def format_line(self) -> str:
        parts = [f"epoch={self.epoch}", f"loss={self.mean_loss:.6f}", f"lr={self.lr:.6e}"]
        if self.dev is not None:
            eers = (("sasv", self.dev.sasv_eer), ("spf", self.dev.spf_eer), ("sv", self.dev.sv_eer))
            parts += [f"dev_{name}={eer:.3f}" for name, eer in eers if eer is not None]
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


def score_trials(model: Model, trials: list[Trial] | Protocol | TrialRows, store: EmbeddingStore,
                 batch_size: int = 256) -> np.ndarray:
    """Per-trial target probabilities in protocol order: the softmax of
    ``model.forward`` in eval mode, which reads the running statistics and
    changes nothing in the model.

    The bytes of the scores depend on ``batch_size``, not only on the model
    and the trials. OpenBLAS picks a product's kernel by its shape: a
    one-row product, and the two-column product of the output layer at any
    row count, give other bytes than the same rows inside the whole batch,
    so a CNN2D_SE scored at batch 1 differs from batch 90 by up to 4.4e-16
    (at batch 30 by 1.1e-16). Splitting a conv GEMM by columns, or a wider
    dense product into pieces of two or more rows, changes no byte. Scores
    are reproducible bit for bit only at the same batch size.

    The batches are spread over one lane per CPU (``_lanes.run``), each
    batch computed whole on one thread, and every batch runs its GEMMs on a
    one-thread OpenBLAS, on a lane or on the caller (``pin``). So a batch's
    bytes depend neither on how many batches the call has nor on the
    number of lanes: OpenBLAS 0.3.31 gives some products other bytes on
    two threads than on one (square 300, 400 and 1000 products, and an
    Extend512_DNN batch of 400 rows at dims (133, 133, 134) by up to
    6.7e-16), so a lone batch on a two-thread OpenBLAS would differ from
    the same batch on a lane. The conv blocks split their im2col GEMMs by
    columns at multiples of 16 into pieces of at most
    ``tensor._PIECE_BUDGET`` elements, split between the lanes
    (``tensor._item_chunks``), which changes no byte. An error is the one
    the plain loop raises, from the earliest failing batch, and numpy's
    ``errstate`` holds on every lane. Inside a lane the conv blocks'
    passes run inline, as a lane starts no lanes. The run parks OpenBLAS's workers (``_lanes``), which a training
    step's GEMMs may have left spinning.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows = compile_trials(store, trials)
    out = np.empty(len(rows))

    def score(i: int) -> None:
        batch = fuse_batch(store, rows[i : i + batch_size], model.config.fusion_mode)
        out[i : i + len(batch)] = softmax_scores(model.forward(batch).data)

    _lanes.run(score, range(0, len(rows), batch_size), pin=True)
    return out


def evaluate_trials(model: Model, trials: list[Trial] | TrialRows, store: EmbeddingStore,
                    batch_size: int = 256):
    rows = compile_trials(store, trials)
    scores = score_trials(model, rows, store, batch_size)
    return evaluate(ScoreSet(numbered_trial_ids(len(rows)), scores, rows.labels.tolist()))


def fit(
    model: Model,
    train_trials: list[Trial] | Protocol | TrialRows,
    cfg: TrainConfig,
    store: EmbeddingStore,
    dev_trials: list[Trial] | Protocol | TrialRows | None = None,
) -> FitResult:
    """Train in place and return the per-epoch log.

    Both trial sets may be ``Trial`` lists, a ``Protocol`` (whose file and
    line then name a fault) or compiled ``TrialRows``; all give the same
    checkpoint bytes. When dev trials are given they are scored after every
    epoch; with ``cfg.select_best`` (the default; turn it off when dev was
    part of the training data) the parameters with the lowest dev SASV-EER
    are restored at the end, otherwise the final epoch stays.
    The model is returned with no gradients held.

    Each step's Adam update runs inside its backward pass (``Adam.step``):
    a parameter is updated as soon as its gradient is complete, while the
    rules of earlier layers still run. An error in the middle of a backward
    pass can leave the parameters partly updated, and since Adam spreads a
    large parameter's blocks over the lanes, a lane may already have
    updated blocks after the one that failed.

    The passes between a step's GEMMs (the conv blocks' im2col, col2im and
    epilogues, and Adam) run on one lane per CPU (``_lanes.run``), with
    OpenBLAS's spinning workers parked where no other thread could be in
    OpenBLAS, and the GEMMs on OpenBLAS's own threads. The dev check scores
    on one-thread OpenBLAS (``score_trials``). No byte depends on the number
    of lanes, but the step's GEMMs can depend on OpenBLAS's thread count.

    Each step runs with numpy's overflow and invalid-operation errors
    raised: one ends training with a RuntimeError naming the epoch and
    step, instead of moments or weights silently turning inf or NaN.
    """
    tune_malloc()
    where = train_trials.where() if isinstance(train_trials, Protocol) else ""
    if not train_trials:
        raise ValueError(f"{where}no training trials")
    train_rows = compile_trials(store, train_trials)
    y = (train_rows.labels == "target").astype(np.intp)
    if y.min() == y.max():
        raise ValueError(f"{where}training data must contain both classes")

    mode = model.config.fusion_mode
    dev_rows = compile_trials(store, dev_trials) if dev_trials is not None else None
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params.items())
    result = FitResult()
    best_eer = np.inf
    best_state = None
    n = len(train_rows)
    step = 0

    model.zero_grads()  # each backward leaves every parameter without a gradient
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        last_lr = lr_at(step, cfg)
        for idx in _batches(n, cfg.batch_size, perm):
            last_lr = lr_at(step, cfg)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    batch = fuse_batch(store, train_rows[idx], mode)
                    with T.recording() as tape:
                        logits = model.forward(batch, training=True)
                        loss = weighted_cross_entropy(logits, y[idx], cfg.class_weights)
                    loss_value = loss.item()
                    if not np.isfinite(loss_value):
                        raise RuntimeError(
                            f"non-finite loss {loss_value} at epoch {epoch}, step {step}"
                        )
                    optimizer.step(last_lr, cfg.weight_decay, tape, loss)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"floating-point {exc} at epoch {epoch}, step {step}"
                ) from None
            total += loss_value * len(idx)
            step += 1

        log = EpochLog(epoch=epoch, mean_loss=total / n, lr=last_lr)
        if dev_rows is not None:
            report = log.dev = evaluate_trials(model, dev_rows, store, cfg.batch_size)
            if cfg.select_best and report.sasv_eer is not None and report.sasv_eer < best_eer:
                best_eer = report.sasv_eer
                best_state = model.state_arrays()
                result.best_epoch = epoch
        result.logs.append(log)

    if best_state is not None:  # only with cfg.select_best and dev trials
        model.load_state_arrays(best_state)
    return result
