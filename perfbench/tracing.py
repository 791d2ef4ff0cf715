"""Span tracing around the package's public functions, from outside it.

The traced run replaces module and class attributes that callers resolve
at call time (``tensor.conv2d``, ``training.fuse_batch``, ``Model.forward``,
``Tape.backward``, ...) with wrappers that record a span per call: name,
start, end and the enclosing span. ``Tape.record`` is wrapped too, so each
gradient rule is timed, during ``Tape.backward``, under the op that
recorded it. A target that no longer exists is reported as absent, and
``Tracer.installed`` puts every original attribute back on exit.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

TENSOR_OPS = (
    "conv1d", "conv2d", "linear", "batch_norm", "leaky_relu",
    "adaptive_avg_pool1d", "adaptive_avg_pool2d", "log_softmax",
)

LAYERS = (
    "data", "fusion", "tensor", "attention", "models", "training", "metrics",
    "score_fusion",
)


def _nbytes(result, args):
    return result.data.nbytes


def _array_nbytes(result, args):
    return result.nbytes


def _file_bytes(path_arg):
    def count(result, args):
        return os.path.getsize(args[path_arg])
    return count


def _iterations(result, args):
    return int(result.diagnostics.get("iterations", 0))


# (module, attribute path, span name, per-call count) -- the count is added
# to the counter "<span name>.count" after each call.
TARGETS = (
    ("data", "load_embeddings", "data.load_embeddings", _file_bytes(0)),
    ("data", "parse_protocol", "data.parse_protocol", None),
    ("training", "trial_embeddings", "data.resolve", None),
    ("training", "fuse_batch", "fusion.fuse_batch", _array_nbytes),
    *(("tensor", op, f"tensor.{op}", _nbytes) for op in TENSOR_OPS),
    ("tensor", "Tape.backward", "tensor.backward", None),
    ("attention", "apply_attention", "attention.apply", None),
    ("models", "build", "models.build", None),
    ("models", "Model.forward", "models.forward", None),
    ("models", "save_checkpoint", "models.save_checkpoint", _file_bytes(1)),
    ("models", "load_checkpoint", "models.load_checkpoint", None),
    ("training", "fit", "training.fit", None),
    ("training", "Adam.step", "training.optimizer", None),
    ("training", "evaluate_trials", "training.dev_eval", None),
    ("training", "score_trials", "training.score", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("training", "evaluate", "metrics.evaluate", None),
    ("metrics", "write_score_file", "metrics.write_score_file", None),
    ("metrics", "read_score_file", "metrics.read_score_file", None),
    ("score_fusion", "fit_linear", "score_fusion.fit_linear", _iterations),
    ("score_fusion", "apply", "score_fusion.apply", None),
)

# Gradient rules recorded inside one of these spans are timed under it;
# rules recorded anywhere else (loss terms, reshapes) go to tensor.other.
_RULE_OWNERS = {f"tensor.{op}" for op in TENSOR_OPS} | {"attention.apply"}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    def reset(self) -> None:
        """Forget spans and counters recorded so far (between passes)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.counts.clear()

    # -- wrapping ----------------------------------------------------------

    def _resolve(self, module: str, path: str):
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(f"sasvbackend.{module}")
        except ModuleNotFoundError:
            return None, attr, None
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, attr, None
        original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
        return owner, attr, original

    def _patch(self, owner, attr: str, original, replacement) -> None:
        functools.update_wrapper(replacement, original)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def wrap(self, module: str, path: str, name: str, count=None) -> bool:
        """Time every call of ``<module>.<path>`` as a span called ``name``."""
        owner, attr, original = self._resolve(module, path)
        if original is None:
            self.absent.append(f"{module}.{path}")
            return False
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer.counts[f"{name}.calls"] += 1
            if count is not None:
                tracer.counts[f"{name}.count"] += count(result, args)
            return result

        self._patch(owner, attr, original, traced)
        return True

    def _wrap_tape_record(self) -> None:
        owner, attr, original = self._resolve("tensor", "Tape.record")
        if original is None:
            self.absent.append("tensor.Tape.record")
            return
        tracer = self

        def record(tape, rule):
            top = tracer.spans[tracer._stack[-1]].name if tracer._stack else ""
            span_name = f"{top if top in _RULE_OWNERS else 'tensor.other'}.bwd"

            def timed_rule():
                idx = tracer._enter(span_name)
                try:
                    rule()
                finally:
                    tracer._exit(idx)

            return original(tape, timed_rule)

        self._patch(owner, attr, original, record)

    @contextmanager
    def installed(self):
        """Wrap every target for the body, then restore the originals."""
        try:
            for module, path, name, count in TARGETS:
                self.wrap(module, path, name, count)
            self._wrap_tape_record()
            yield self
        finally:
            self.unwrap_all()

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def inclusive(self, name: str, outside: str | None = None) -> float:
        """Total duration of spans called ``name`` (not nested in ``outside``)."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not (outside and self._inside(span, outside)):
                total += span.duration
        return total

    def _inside(self, span: Span, ancestor: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    def layer_self_time(self) -> dict[str, float]:
        """Seconds spent in each layer with its nested spans' time removed."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[layer_of(span.name)] += span.duration - span.child_time
        return out

    def per_layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The benchmark's per-layer metric values for one traced pass."""
        c, inc = self.counts, self.inclusive
        m = {
            "data.load_embeddings_s": inc("data.load_embeddings"),
            "data.parse_protocol_s": inc("data.parse_protocol"),
            "data.embeddings_file_bytes": c["data.load_embeddings.count"],
            "data.resolve_s": inc("data.resolve"),
            "data.resolve_calls": c["data.resolve.calls"],
            "fusion.fuse_batch_s": inc("fusion.fuse_batch"),
            "fusion.fuse_batch_calls": c["fusion.fuse_batch.calls"],
            "fusion.fused_bytes": c["fusion.fuse_batch.count"],
        }
        for op in TENSOR_OPS:
            key = f"tensor.{op}"
            m[f"{key}.fwd_s"] = inc(key)
            m[f"{key}.bwd_s"] = inc(f"{key}.bwd")
            m[f"{key}.calls"] = c[f"{key}.calls"]
            m[f"{key}.out_bytes"] = c[f"{key}.count"]
        m.update({
            "tensor.backward_s": inc("tensor.backward"),
            "attention.apply_s": inc("attention.apply"),
            "attention.bwd_s": inc("attention.apply.bwd"),
            "attention.calls": c["attention.apply.calls"],
            "models.build_s": inc("models.build"),
            "models.forward_s": inc("models.forward"),
            "models.save_checkpoint_s": inc("models.save_checkpoint"),
            "models.load_checkpoint_s": inc("models.load_checkpoint"),
            "models.checkpoint_bytes": c["models.save_checkpoint.count"],
            "training.fit_s": inc("training.fit"),
            "training.steps": c["training.optimizer.calls"],
            "training.optimizer_s": inc("training.optimizer"),
            "training.dev_eval_s": inc("training.dev_eval"),
            "training.score_s": inc("training.score", outside="training.fit"),
            "metrics.evaluate_s": inc("metrics.evaluate"),
            "metrics.write_score_file_s": inc("metrics.write_score_file"),
            "metrics.read_score_file_s": inc("metrics.read_score_file"),
            "score_fusion.fit_linear_s": inc("score_fusion.fit_linear"),
            "score_fusion.fit_linear_iterations": c["score_fusion.fit_linear.count"],
            "score_fusion.apply_s": inc("score_fusion.apply"),
        })
        layers = self.layer_self_time()
        m["other_s"] = wall_s - sum(layers.values())
        for layer, seconds in layers.items():
            m[f"{layer}.wall_share_pct"] = 100.0 * seconds / wall_s
        return m
