#!/usr/bin/env python3
"""End-to-end synthetic experiment: generate data, train one preset, score
the eval protocol and print the three EERs.

Example:
    python scripts/run_synthetic_experiment.py --model CNN1D --seed 101 \
        --epochs 30 --out-dir runs/cnn1d_s101
"""

import argparse
import time
from dataclasses import asdict, fields

from sasvbackend import data, models, training
from sasvbackend.cli import config_digest
from sasvbackend.metrics import write_score_file


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="CNN1D", choices=sorted(models.PRESETS))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=90)
    parser.add_argument("--out-dir", default=None, help="save checkpoint + scores here")
    parser.add_argument("--use-dev", action="store_true",
                        help="score dev each epoch and keep the best-dev checkpoint")
    for field in fields(data.SynthConfig):
        if field.name == "seed":  # --seed above seeds the generator too
            continue
        kind = float if field.type == "float" else int
        parser.add_argument(f"--{field.name.replace('_', '-')}", type=kind, default=None)
    args = parser.parse_args()

    synth_kwargs = {
        f.name: getattr(args, f.name)
        for f in fields(data.SynthConfig)
        if f.name != "seed" and getattr(args, f.name) is not None
    }
    synth_kwargs["seed"] = args.seed
    cfg = data.SynthConfig(**synth_kwargs)
    print(f"generating synthetic workload (config {config_digest(asdict(cfg))})")
    store, protocols = data.generate_synthetic(cfg)

    dims = (cfg.d_spk, cfg.d_spk, cfg.d_cm)
    model = models.build(args.model, dims, seed=args.seed)
    train_cfg = training.TrainConfig(
        batch_size=args.batch_size, epochs=args.epochs, seed=args.seed
    )
    print(f"training {args.model} ({model.parameter_count()} parameters, "
          f"{len(protocols['train'])} trials, {args.epochs} epochs)")
    start = time.perf_counter()
    result = training.fit(
        model, protocols["train"].trials, train_cfg, store,
        dev_trials=protocols["dev"].trials if args.use_dev else None,
    )
    elapsed = time.perf_counter() - start
    print(f"trained in {elapsed:.0f}s, final loss {result.logs[-1].mean_loss:.5f}")

    report = training.evaluate_trials(model, protocols["eval"].trials, store)
    print(report.format_table())

    if args.out_dir:
        import os

        os.makedirs(args.out_dir, exist_ok=True)
        models.save_checkpoint(model, os.path.join(args.out_dir, "checkpoint.ckpt"))
        scores = training.score_trials(model, protocols["eval"].trials, store)
        write_score_file(
            protocols["eval"].trial_ids(),
            scores,
            os.path.join(args.out_dir, "eval.scores"),
            comments=(f"seed={args.seed} config={config_digest(asdict(cfg))}",),
        )
        print(f"artifacts in {args.out_dir}")


if __name__ == "__main__":
    main()
