"""Command-line entry point.

Subcommands: gen-data, train, score, eval, fuse, selftest. Every artifact
written carries the originating seed and a digest of the producing
configuration in comment lines (or in the checkpoint header), and all
writes go through a temp-file rename so interrupted runs never leave
truncated outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import data, metrics, models, score_fusion, selftest, training
from ._mem import tune_malloc
from .tensor import DimensionError


def config_digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _resolve(path: str, workdir: str | None) -> str:
    if workdir and not os.path.isabs(path):
        return os.path.join(workdir, path)
    return path


def _parse_bool(text: str) -> bool:
    flags = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
    if text.lower() not in flags:
        raise ValueError(f"expected one of true/false/yes/no/1/0, got {text!r}")
    return flags[text.lower()]


def integer(text: str) -> int:
    return data.parse_number(text, int)


def finite_float(text: str) -> float:
    value = data.parse_number(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# Casts from the (string) type annotations of the config dataclasses.
_CASTS = {"int": integer, "float": finite_float, "bool": _parse_bool, "str": str,
          "str | None": str}


@dataclass
class ExperimentConfig:
    """Declarative training run, parsed from a key=value run file."""

    model: str
    embeddings: str
    train_protocol: str
    out_dir: str
    dev_protocol: str | None = None
    seed: int = 0
    epochs: int = 30
    batch_size: int = 256
    lr0: float = 1e-3
    weight_decay: float = 1e-3
    schedule_decay: float = 1e-4
    class_weight_negative: float = 0.1
    class_weight_positive: float = 0.9
    select_best: bool = True

    @classmethod
    def parse(cls, path: str, workdir: str | None = None) -> "ExperimentConfig":
        values = {}
        types = {f.name: f.type for f in fields(cls)}

        def entry(line):
            if "=" not in line:
                raise ValueError("expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"unknown key {key!r}")
            if key in values:
                raise ValueError(f"duplicate key {key!r}")
            try:
                values[key] = _CASTS[types[key]](value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None

        data.read_lines(path, entry, strip=True)
        for required in ("model", "embeddings", "train_protocol", "out_dir"):
            if required not in values:
                raise ValueError(f"{path}: missing required key {required!r}")
        for key in ("embeddings", "train_protocol", "dev_protocol", "out_dir"):
            if key in values:
                value = values[key] = _resolve(values[key], workdir)
                if key == "out_dir":
                    continue
                if not os.path.exists(value):
                    raise FileNotFoundError(f"{path}: run file references missing path: {value}")
                if os.path.isdir(value):
                    raise IsADirectoryError(f"{path}: run file references a directory: {value}")
        cfg = cls(**values)
        try:
            models.preset(cfg.model)
            cfg.train_config()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cfg

    def train_config(self) -> training.TrainConfig:
        return training.TrainConfig(
            lr0=self.lr0,
            weight_decay=self.weight_decay,
            class_weights=(self.class_weight_negative, self.class_weight_positive),
            batch_size=self.batch_size,
            epochs=self.epochs,
            schedule_decay=self.schedule_decay,
            seed=self.seed,
        )


def _score_set_from_files(score_path: str, protocol: data.Protocol) -> metrics.ScoreSet:
    ids, scores = metrics.read_score_file(score_path)
    labels_by_id = dict(zip(protocol.trial_ids(), protocol.labels()))
    scored = set(ids)
    for problem, bad in (
        ("trial ids not in protocol", [tid for tid in ids if tid not in labels_by_id]),
        ("protocol trials have no score", [tid for tid in labels_by_id if tid not in scored]),
    ):
        if bad:
            raise ValueError(f"{score_path}: {len(bad)} {problem}: {bad[:5]}"
                             f"{'...' if len(bad) > 5 else ''}")
    return metrics.ScoreSet(ids, scores, [labels_by_id[tid] for tid in ids])


def cmd_gen_data(args) -> int:
    kwargs = {}
    for field in fields(data.SynthConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            kwargs[field.name] = value
    cfg = data.SynthConfig(**kwargs)
    digest = config_digest(asdict(cfg))
    store, protocols = data.generate_synthetic(cfg)
    out_dir = _resolve(args.out_dir, args.workdir)
    os.makedirs(out_dir, exist_ok=True)
    stamp = (f"seed={cfg.seed} config={digest}",)
    data.save_embeddings(store, os.path.join(out_dir, "embeddings.tsv"), comments=stamp)
    for name, protocol in protocols.items():
        data.save_protocol(protocol, os.path.join(out_dir, f"{name}.protocol"), comments=stamp)
    print(f"wrote embeddings and train/dev/eval protocols to {out_dir} (config {digest})")
    return 0


def cmd_train(args) -> int:
    cfg = ExperimentConfig.parse(_resolve(args.run_file, args.workdir), args.workdir)
    digest = config_digest(asdict(cfg))
    store = data.load_embeddings(cfg.embeddings)
    train_protocol = data.parse_protocol(cfg.train_protocol, partition="train")
    dev_protocol = (
        data.parse_protocol(cfg.dev_protocol, partition="dev")
        if cfg.dev_protocol
        else None
    )
    dims = (store.d_spk, store.d_spk, store.d_cm)
    model = models.build(cfg.model, dims, seed=cfg.seed)
    result = training.fit(
        model,
        train_protocol.trials,
        cfg.train_config(),
        store,
        dev_trials=dev_protocol.trials if dev_protocol else None,
        select_best=cfg.select_best if dev_protocol else None,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.ckpt")
    models.save_checkpoint(model, ckpt_path)
    log_path = os.path.join(cfg.out_dir, "train.log")
    with data.atomic_write(log_path) as fh:
        fh.write(f"# seed={cfg.seed} config={digest}\n")
        for log in result.logs:
            fh.write(log.format_line() + "\n")
        if result.best_epoch is not None:
            fh.write(f"# best_epoch={result.best_epoch}\n")
    print(f"trained {cfg.model} for {cfg.epochs} epochs; wrote {ckpt_path}")
    return 0


def cmd_score(args) -> int:
    ckpt_path = _resolve(args.checkpoint, args.workdir)
    emb_path = _resolve(args.embeddings, args.workdir)
    model = models.load_checkpoint(ckpt_path)
    store = data.load_embeddings(emb_path)
    dims = (store.d_spk, store.d_spk, store.d_cm)
    if dims != model.dims:
        raise ValueError(
            f"{emb_path} has embedding dims {dims} but {ckpt_path} was trained on {model.dims}"
        )
    protocol = data.parse_protocol(_resolve(args.protocol, args.workdir))
    try:
        scores = training.score_trials(model.eval(), protocol.trials, store, args.batch_size)
    except MemoryError as exc:
        # numpy's allocation error carries the shape and dtype it asked for.
        shape, dtype = getattr(exc, "shape", None), getattr(exc, "dtype", None)
        asked = (f"; numpy asked for {math.prod(shape) * dtype.itemsize} bytes"
                 f" (array of shape {shape})" if shape is not None and dtype is not None else "")
        raise MemoryError(f"scoring {len(protocol)} trials at --batch-size {args.batch_size} "
                          f"ran out of memory{asked}; use a smaller --batch-size") from None
    if not np.isfinite(scores).all():
        raise ValueError(f"{ckpt_path}: model gives non-finite scores")
    digest = config_digest(asdict(model.config))
    metrics.write_score_file(
        protocol.trial_ids(),
        scores,
        _resolve(args.out, args.workdir),
        comments=(f"seed={model.seed} config={digest} batch_size={args.batch_size}",),
    )
    print(f"scored {len(protocol)} trials -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    protocol = data.parse_protocol(_resolve(args.protocol, args.workdir))
    score_set = _score_set_from_files(_resolve(args.scores, args.workdir), protocol)
    report = metrics.evaluate(score_set)
    print(report.format_table())
    if args.json_out:
        with data.atomic_write(_resolve(args.json_out, args.workdir)) as fh:
            fh.write(report.to_json() + "\n")
    if args.det_out:
        pos = score_set.by_label("target")
        neg = [s for s, l in zip(score_set.scores, score_set.labels) if l != "target"]
        metrics.write_det_file(
            metrics.det_points(pos, neg), _resolve(args.det_out, args.workdir)
        )
    return 0


def cmd_fuse(args) -> int:
    if args.method == "linear" and not (args.calibration_scores and args.calibration_protocol):
        raise ValueError("linear fusion needs --calibration-scores and --calibration-protocol")
    protocol = data.parse_protocol(_resolve(args.protocol, args.workdir))
    sets = [
        _score_set_from_files(_resolve(path, args.workdir), protocol)
        for path in args.scores
    ]
    if args.method == "average":
        model = score_fusion.FusionModel(kind=score_fusion.AVERAGE)
    else:
        cal_protocol = data.parse_protocol(
            _resolve(args.calibration_protocol, args.workdir)
        )
        cal_sets = [
            _score_set_from_files(_resolve(path, args.workdir), cal_protocol)
            for path in args.calibration_scores
        ]
        model = score_fusion.fit_linear(cal_sets)
    fused = score_fusion.apply(model, sets)
    digest = config_digest(
        {"method": args.method, "inputs": list(args.scores)}
    )
    metrics.write_score_file(
        fused.trial_ids,
        fused.scores,
        _resolve(args.out, args.workdir),
        comments=(f"seed=0 config={digest} method={args.method}",),
    )
    if args.model_out:
        score_fusion.save_fusion_model(model, _resolve(args.model_out, args.workdir))
    print(metrics.evaluate(fused).format_table())
    return 0


def cmd_selftest(args) -> int:
    return 0 if selftest.run() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasv-backend",
        description="Backend ensemble training and EER evaluation for "
        "spoofing-aware speaker verification",
    )
    parser.add_argument("--workdir", default=None, help="base directory for relative paths")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic embedding store + protocols")
    gen.add_argument("--out-dir", required=True)
    for field in fields(data.SynthConfig):
        flag = "--" + field.name.replace("_", "-")
        gen.add_argument(flag, type=_CASTS[field.type], default=None)
    gen.set_defaults(func=cmd_gen_data)

    train = sub.add_parser("train", help="train a model from a key=value run file")
    train.add_argument("--run-file", required=True)
    train.set_defaults(func=cmd_train)

    score = sub.add_parser("score", help="score a protocol with a checkpoint")
    score.add_argument("--checkpoint", required=True)
    score.add_argument("--embeddings", required=True)
    score.add_argument("--protocol", required=True)
    score.add_argument("--out", required=True)
    score.add_argument("--batch-size", type=integer, default=256,
                       help="trials per forward pass; score bytes are reproducible only "
                            "at the same batch size (BLAS picks a product's kernel by its shape)")
    score.set_defaults(func=cmd_score)

    ev = sub.add_parser("eval", help="compute SASV/SPF/SV EERs from a score file")
    ev.add_argument("--scores", required=True)
    ev.add_argument("--protocol", required=True)
    ev.add_argument("--json-out", default=None)
    ev.add_argument("--det-out", default=None)
    ev.set_defaults(func=cmd_eval)

    fuse = sub.add_parser("fuse", help="combine score files by averaging or logistic fusion")
    fuse.add_argument("--method", choices=("average", "linear"), required=True)
    fuse.add_argument("--scores", nargs="+", required=True)
    fuse.add_argument("--protocol", required=True)
    fuse.add_argument("--out", required=True)
    fuse.add_argument("--calibration-scores", nargs="+", default=None)
    fuse.add_argument("--calibration-protocol", default=None)
    fuse.add_argument("--model-out", default=None)
    fuse.set_defaults(func=cmd_fuse)

    st = sub.add_parser("selftest", help="run the built-in oracle/invariant checks")
    st.set_defaults(func=cmd_selftest)
    return parser


_ERROR_CATEGORIES = (
    (FileNotFoundError, "missing-file", 3),
    (OSError, "file-access", 3),
    (DimensionError, "dimension", 2),
    (ValueError, "invalid-input", 2),
    (KeyError, "missing-id", 4),
    (RuntimeError, "runtime", 5),
    (MemoryError, "out-of-memory", 5),
)


def main(argv=None) -> int:
    tune_malloc()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single exit point maps categories
        for klass, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, klass):
                print(f"error[{category}]: {exc}", file=sys.stderr)
                return code
        print(f"error[internal]: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
