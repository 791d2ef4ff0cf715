"""One benchmark job: generate a workload's inputs, or run its pipeline.

    python3 perfbench/job.py generate --workload NAME --seed N --out DIR
    python3 perfbench/job.py run --workload NAME --seed N --inputs DIR --out RESULT.json [--trace]

``generate`` writes the embeddings and protocol files in their own process,
so the job that ``run`` measures starts from files, like the CLI does.
``run`` calls only the package's public entry points (``data``, ``models``,
``training``, ``metrics``, ``score_fusion``) and writes its timings,
correctness checks and provenance to RESULT.json. With ``--trace`` the
same pipeline runs with the tracer's wrappers installed, and the result
also holds the per-layer metrics of the timed pass.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sasvbackend  # noqa: E402
from sasvbackend import data, metrics, models, score_fusion, training  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402

EMBEDDINGS = "embeddings.tsv"
# Model initialisation and epoch shuffling are part of the workload, so the
# EERs of different seeds differ only by their data.
MODEL_SEED = 0


def protocol_file(inputs: str, part: str) -> str:
    return os.path.join(inputs, f"{part}.protocol")


def generate(workload, seed: int, out_dir: str) -> None:
    if workload.eval_pool_per_label is None:
        cfg = data.SynthConfig(seed=seed, **workload.synth)
        store, protocols = data.generate_synthetic(cfg)
    else:
        # One fixed draw (generator seed 0) with a larger eval pool; --seed
        # picks this run's eval trials from the pool, label by label.
        per_label = workload.synth["eval_trials_per_label"]
        cfg = data.SynthConfig(**dict(workload.synth, seed=0,
                                      eval_trials_per_label=workload.eval_pool_per_label))
        store, protocols = data.generate_synthetic(cfg)
        rng = np.random.default_rng(seed)
        pool = protocols["eval"].trials
        keep = sorted(
            i
            for label in data.LABELS
            for i in rng.choice([i for i, t in enumerate(pool) if t.label == label],
                                size=per_label, replace=False)
        )
        protocols["eval"] = data.Protocol([pool[i] for i in keep], "eval")
    os.makedirs(out_dir, exist_ok=True)
    data.save_embeddings(store, os.path.join(out_dir, EMBEDDINGS))
    for part in workload.partitions:
        data.save_protocol(protocols[part], protocol_file(out_dir, part))


class Checks:
    """Correctness checks, each one operation attempted or failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def setup_pass(workload, inputs: str):
    """load_embeddings + parse_protocol for every protocol + build for every system."""
    start = time.perf_counter()
    store = data.load_embeddings(os.path.join(inputs, EMBEDDINGS))
    protocols = {
        part: data.parse_protocol(protocol_file(inputs, part), partition=part)
        for part in workload.partitions
    }
    dims = (store.d_spk, store.d_spk, store.d_cm)
    systems = {name: models.build(name, dims, seed=MODEL_SEED) for name in workload.systems}
    return store, protocols, systems, time.perf_counter() - start


def score_file_round_trip(trial_ids, scores, path, protocol):
    """Write a score file and read it back, as the CLI's eval and fuse do."""
    metrics.write_score_file(trial_ids, scores, path)
    ids, read_back = metrics.read_score_file(path)
    return ids, read_back, metrics.ScoreSet(ids, read_back, protocol.labels())


def run_pipeline(workload, inputs: str, workdir: str, tracer: Tracer | None = None) -> dict:
    setup_samples = [
        setup_pass(workload, inputs)[-1] for _ in range(workload.setup_repeats - 1)
    ]
    if tracer is not None:
        tracer.reset()

    t0 = time.perf_counter()
    store, protocols, systems, setup_s = setup_pass(workload, inputs)
    setup_samples.append(setup_s)
    train, dev, ev = protocols["train"], protocols.get("dev"), protocols["eval"]
    cfg = training.TrainConfig(batch_size=workload.batch_size, epochs=workload.epochs,
                               seed=MODEL_SEED)
    fit_s = 0.0
    for model in systems.values():
        start = time.perf_counter()
        training.fit(model, train.trials, cfg, store,
                     dev_trials=dev.trials if workload.dev_each_epoch else None)
        fit_s += time.perf_counter() - start

    score_s = 0.0
    scored = {}  # (system, partition) -> (scores, ids read back, scores read back)
    sets = {}
    loaded = {}
    parts = ("dev", "eval") if workload.fuse else ("eval",)
    for name, model in systems.items():
        ckpt = os.path.join(workdir, f"{name}.ckpt")
        models.save_checkpoint(model, ckpt)
        loaded[name] = models.load_checkpoint(ckpt)
        for part in parts:
            protocol = protocols[part]
            start = time.perf_counter()
            scores = training.score_trials(loaded[name], protocol.trials, store,
                                           workload.batch_size)
            if part == "eval":
                score_s += time.perf_counter() - start
            path = os.path.join(workdir, f"{name}.{part}.scores")
            ids, read_back, sets[name, part] = score_file_round_trip(
                protocol.trial_ids(), scores, path, protocol)
            scored[name, part] = (scores, ids, read_back)
    reports = {name: metrics.evaluate(sets[name, "eval"]) for name in systems}
    final = workload.systems[-1]
    if workload.fuse:
        fusion_model = score_fusion.fit_linear([sets[name, "dev"] for name in systems])
        fused = score_fusion.apply(fusion_model, [sets[name, "eval"] for name in systems])
        final = "fused"
        ids, read_back, sets[final, "eval"] = score_file_round_trip(
            fused.trial_ids, fused.scores, os.path.join(workdir, "fused.eval.scores"), ev)
        scored[final, "eval"] = (fused.scores, ids, read_back)
        reports[final] = metrics.evaluate(sets[final, "eval"])
    wall_s = time.perf_counter() - t0
    per_layer = tracer.per_layer_metrics(wall_s) if tracer is not None else None

    checks = Checks()
    # Scoring is short next to the job, so it is timed again, outside the
    # pipeline, and score_trials_per_s takes the median pass.
    score_samples = [score_s]
    for _ in range(workload.score_repeats - 1):
        start = time.perf_counter()
        again = {name: training.score_trials(model, ev.trials, store, workload.batch_size)
                 for name, model in loaded.items()}
        score_samples.append(time.perf_counter() - start)
        for name, scores in again.items():
            checks.check(scores.tobytes() == scored[name, "eval"][0].tobytes(),
                         f"{name}: repeated eval scoring bit-identical")
    for (name, part), (scores, ids, read_back) in scored.items():
        protocol = protocols[part]
        checks.check(scores.shape == (len(protocol),),
                     f"{name}/{part}: one score per protocol trial")
        checks.check(bool(np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))),
                     f"{name}/{part}: scores finite and in [0, 1]")
        checks.check(ids == protocol.trial_ids() and read_back.tobytes() == scores.tobytes(),
                     f"{name}/{part}: score file round-trips exactly")
    head = ev.trials[: workload.batch_size]
    for name, model in systems.items():
        in_memory = training.score_trials(model, head, store, workload.batch_size)
        checks.check(in_memory.tobytes() == scored[name, "eval"][0][: len(head)].tobytes(),
                     f"{name}: checkpoint round trip scores bit-identical")
    eer = reports[final].sasv_eer
    final_scores = np.ascontiguousarray(scored[final, "eval"][0], dtype="<f8")

    return {
        "setup_samples": setup_samples,
        "fit_s": fit_s,
        "train_trials": len(train) * workload.epochs * len(systems),
        "score_s": statistics.median(score_samples),
        "eval_trials_scored": len(ev) * len(systems),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_sasv_eer": eer,
        "eval_sha256": hashlib.sha256(final_scores.tobytes()).hexdigest(),
        "eers": {name: [r.sasv_eer, r.spf_eer, r.sv_eer] for name, r in reports.items()},
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "per_layer": per_layer,
        "absent": list(tracer.absent) if tracer is not None else [],
    }


# -- provenance ---------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the repository the benchmark sits in, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> tuple[str | None, int | None]:
    """BLAS library name/version and its thread count (OpenBLAS builds only)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def provenance(seed: int) -> dict:
    blas, blas_threads = _blas()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("action", choices=("generate", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--inputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if Path(sasvbackend.__file__).resolve().parent != SRC / "sasvbackend":
        print(f"job: imported sasvbackend from {sasvbackend.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = toy(workload)
    if args.action == "generate":
        generate(workload, args.seed, args.out)
        return 0

    workdir = os.path.dirname(os.path.abspath(args.out))
    if args.trace:
        with Tracer().installed() as tracer:
            result = run_pipeline(workload, args.inputs, workdir, tracer)
    else:
        result = run_pipeline(workload, args.inputs, workdir)
    result["provenance"] = provenance(args.seed)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
