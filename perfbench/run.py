"""SASV-backend benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload dnn-ensemble --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a source checkout; it imports the package from
``src/``. Each workload is a single-process batch job (see ``job.py``):
the inputs are generated from ``--seed`` in a process of their own, then
whole jobs run, one process each, until ``--seconds`` have passed (at
least one job). Metrics are medians over the jobs; ``setup_s`` is the
median over every setup pass of every job.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one more job runs with the
tracer installed, and the JSON holds the per-layer metrics of that job,
including ``trace_overhead_s``, its wall time minus the untraced median.
The lines before it give a readable table and the run's provenance.
Everything the run writes goes under ``.perfbench_work/`` and is removed
when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
WORK = ROOT / ".perfbench_work"
JOB_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_trials_per_s": "trials/s",
    "score_trials_per_s": "trials/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "eval_sasv_eer": "%",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _job(action: str, workload: str, seed: int, out: Path, *extra: str) -> None:
    cmd = [sys.executable, str(JOB), action, "--workload", workload, "--seed", str(seed),
           "--out", str(out), *extra]
    subprocess.run(cmd, check=True, timeout=JOB_TIMEOUT_S, stdout=subprocess.DEVNULL)


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    """Generate inputs, run jobs, and return {correct, attempted, failed, metrics, ...}."""
    workdir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    inputs = workdir / "inputs"
    extra = ["--toy"] if toy else []
    jobs = []
    try:
        workdir.mkdir(parents=True)
        _job("generate", name, seed, inputs, *extra)
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < seconds:
            out = workdir / f"job{len(jobs)}.json"
            _job("run", name, seed, out, "--inputs", str(inputs), *extra)
            jobs.append(json.loads(out.read_text()))
        traced = None
        if trace:
            out = workdir / "traced.json"
            _job("run", name, seed, out, "--inputs", str(inputs), "--trace", *extra)
            traced = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    return summarize(jobs, traced, toy)


def summarize(jobs: list[dict], traced: dict | None, toy: bool) -> dict:
    attempted = sum(j["checks"]["attempted"] for j in jobs)
    failures = [f for j in jobs for f in j["checks"]["failures"]]
    # The full-size workloads are sized to land well inside (0, 50); a
    # chance-level EER there means training or scoring broke.
    if not toy:
        attempted += 1
        if not 0.0 < (jobs[0]["eval_sasv_eer"] or 0.0) < 50.0:
            failures.append(f"eval SASV-EER {jobs[0]['eval_sasv_eer']} outside (0, 50)")
    # Every job of one seed, traced or not, must give the same eval scores.
    for other in jobs[1:] + ([traced] if traced else []):
        attempted += 1
        if other["eval_sha256"] != jobs[0]["eval_sha256"]:
            failures.append("eval scores differ between jobs of one seed")
    prov = jobs[0]["provenance"]
    if prov["blas_threads"] is not None:
        attempted += 1
        if prov["blas_threads"] > prov["nproc"]:
            failures.append(f"BLAS uses {prov['blas_threads']} threads on {prov['nproc']} cores")

    med = statistics.median
    wall = med(j["wall_s"] for j in jobs)
    values = {
        "setup_s": med(s for j in jobs for s in j["setup_samples"]),
        "train_trials_per_s": med(j["train_trials"] / j["fit_s"] for j in jobs),
        "score_trials_per_s": med(j["eval_trials_scored"] / j["score_s"] for j in jobs),
        "wall_s": wall,
        "peak_rss_mb": med(j["peak_rss_mb"] for j in jobs),
        "eval_sasv_eer": jobs[0]["eval_sasv_eer"],
    }
    result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if traced is not None:
        attempted += traced["checks"]["attempted"]
        failures += traced["checks"]["failures"]
        layer = dict(traced["per_layer"], trace_overhead_s=traced["wall_s"] - wall)
        result_metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
        "failures": failures,
        "jobs": len(jobs),
        "eval_sha256": jobs[0]["eval_sha256"],
        "eers": jobs[0]["eers"],
        "absent": traced["absent"] if traced else [],
        "provenance": prov,
    }


def report(name: str, result: dict) -> None:
    print(f"== {name}: {result['jobs']} job(s), {result['attempted']} checks, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for key, m in result["metrics"].items():
        print(f"   {key:<40} {m['value']:>16.6g} {m['unit']}")
    for system, (sasv, spf, sv) in result["eers"].items():
        print(f"   eval EER % {system:<16} sasv {sasv:.4f}  spf {spf:.4f}  sv {sv:.4f}")
    print(f"   eval_sha256 {result['eval_sha256']}")
    if result["absent"]:
        print(f"   absent (not traced): {', '.join(result['absent'])}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs and one epoch, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sasvbackend" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'sasvbackend'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy)
        report(name, results[name])
    keys = ("correct", "attempted", "failed", "metrics")
    summary = {name: {k: r[k] for k in keys} for name, r in results.items()}
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
