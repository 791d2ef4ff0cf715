"""Workload definitions for the SASV-backend benchmark.

Each workload is one single-process batch job: load embeddings and
protocols from files, build the systems, train, write a checkpoint and
load it back, score, write and read score files, optionally fuse the
systems' scores, and evaluate the EERs. The inputs come from
``data.generate_synthetic`` with the workload seed (cnn2d-train: the seed
picks the eval trials from one fixed draw), so the same seed always gives
the same files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict                      # SynthConfig fields except the seed
    systems: tuple[str, ...]         # model presets trained in this job
    epochs: int
    batch_size: int                  # training and scoring batch
    dev_each_epoch: bool             # score dev after every epoch, keep the best
    fuse: bool                       # score dev too; fit_linear on dev, apply to eval
    setup_repeats: int               # setup passes per job; setup_s is their median
    score_repeats: int               # eval scoring passes; score_trials_per_s uses the median
    partitions: tuple[str, ...] = field(default=("train", "dev", "eval"))
    eval_pool_per_label: int | None = None  # fixed draw, --seed samples eval (CNN2D_NOTE)


# The CNN jobs train for only 12-20 steps, with eval-mode batch norm on
# half-converged running statistics, so their SASV-EER depends on how far
# training got. cnn1d-dev therefore uses overlapping speaker clusters
# (SV-EER near 50%) with spoofs 10 sigma away in CM space, a cue it learns
# within 4 epochs: its SASV-EER stays near 33% and varies only by
# sampling.
#
# CNN2D_NOTE: CNN2D_SE flipped that spoof cue for some seeds (SASV-EER
# above 50%) and, on separable speakers, landed anywhere from 17% to 31%
# with the training set drawn per seed. So cnn2d-train always trains on
# the same draw (generator seed 0, so the trained model is the same in
# every run) and --seed picks its 900 eval trials from a pool of 3000 of
# that draw; the EER then varies only by eval sampling. The work done per
# run is the same either way.
OVERLAPPING_SPEAKERS = dict(sigma_within=0.3, sigma_between=0.3, spoof_shift=3.0)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dnn-ensemble",
            why=(
                "Paper ensemble on its cheap DNN backends at SASV-2022 sizes (192-d spk, "
                "160-d CM): small GEMMs, so parsing, per-trial resolve/fuse, score files "
                "and score fusion weigh most."
            ),
            synth=dict(
                d_spk=192, d_cm=160,
                train_speakers=200, dev_speakers=40, eval_speakers=100,
                train_trials_per_label=2000, dev_trials_per_label=500,
                eval_trials_per_label=5000,
            ),
            systems=("Extend512_DNN", "Extend1024_DNN"),
            epochs=3,
            batch_size=256,
            dev_each_epoch=True,
            fuse=True,
            setup_repeats=3,
            score_repeats=5,
        ),
        Workload(
            name="cnn2d-train",
            why=(
                "CNN2D_SE at D=16 with circulant-2D fusion: conv2d forward/backward, batch "
                "norm and Adam over the 16.8M-parameter fc0 do nearly all the work; the "
                "data path is under 1%."
            ),
            synth=dict(
                sigma_within=0.2, eval_speakers=100,
                train_trials_per_label=90, eval_trials_per_label=300,
            ),
            systems=("CNN2D_SE",),
            epochs=4,
            batch_size=90,
            dev_each_epoch=False,
            fuse=False,
            setup_repeats=5,
            score_repeats=1,
            partitions=("train", "eval"),
            eval_pool_per_label=1000,
        ),
        Workload(
            name="cnn1d-dev",
            why=(
                "CNN1D_SE at 64/48-d with stack1d fusion and dev scoring every epoch: the "
                "only user of conv1d, 1D pooling and SE1D; it alternates train- and "
                "eval-mode batch norm."
            ),
            synth=dict(
                OVERLAPPING_SPEAKERS, d_spk=64, d_cm=48, eval_speakers=100,
                train_trials_per_label=150, dev_trials_per_label=100,
                eval_trials_per_label=600,
            ),
            systems=("CNN1D_SE",),
            epochs=4,
            batch_size=90,
            dev_each_epoch=True,
            fuse=False,
            setup_repeats=5,
            score_repeats=3,
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same job shape at a size that runs in seconds (smoke test)."""
    small = dict(workload.synth)
    small.update(
        train_speakers=6, dev_speakers=4, eval_speakers=4,
        train_trials_per_label=12, dev_trials_per_label=8, eval_trials_per_label=10,
    )
    if small.get("d_spk", 16) > 16:
        small.update(d_spk=16, d_cm=12)
    pool = 20 if workload.eval_pool_per_label else None
    return replace(workload, synth=small, epochs=1, batch_size=16, setup_repeats=2,
                   score_repeats=2, eval_pool_per_label=pool)
