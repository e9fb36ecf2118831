"""The benchmark's workloads: which nckit commands run, at which sizes, and why.

Every workload runs the same job list, so that every end-to-end metric is
measured on every workload. Each workload makes some jobs heavy and keeps
the others small:

* ``wide`` makes the few-shot ridge head heavy (p >> support size).
* ``many`` makes the O(K^2) class-pair loops, the analyze JSON and CSV
  parsing heavy (1000 classes, n > p, CSV input).
* ``mc`` makes the Monte Carlo verifiers and the closed-form bound sweep
  heavy, over a small embedding file.

All inputs are derived from the workload seed: the mixture-spec seed, the
cube-means seed, the few-shot ``--seed`` and both Monte Carlo ``--seed``
values.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Data:
    """A spherical Gaussian mixture written by ``nckit synth``."""

    classes: int
    rows_per_class: int
    p: int
    means: str  # "etf" (unit-norm simplex ETF) or "cube" (uniform in [0,1]^p)
    total_variance: float
    format: str  # "binary" or "csv"


@dataclass(frozen=True)
class FewShot:
    k: int
    n_shot: int
    n_query: int
    episodes: int


@dataclass(frozen=True)
class Workload:
    why: str
    data: Data
    fewshot: FewShot
    prop5_trials: int
    lemma2_trials: int
    # runs per round of a job, by its metric (default 1; set-up default 3);
    # a light job runs several times so that its median is steady
    reps: dict[str, int] = field(default_factory=dict)


# Monte Carlo verifier parameters; the trial counts vary per workload.
PROP5 = {"k": 5, "p": 64, "v_max": 0.02, "n_c": 5}
LEMMA2 = {"n": 50, "p": 8}


def _verify_argv(name: str, params: dict, trials: int, seed: int) -> list[str]:
    flags = []
    for key, value in params.items():
        flags += [f"--{key.replace('_', '-')}", str(value)]
    return ["bounds", name, *flags, "--verify", "--trials", str(trials), "--seed", str(seed)]


def prop5_argv(trials: int, seed: int) -> list[str]:
    return _verify_argv("prop5-gaussian", PROP5, trials, seed)


def lemma2_argv(trials: int, seed: int) -> list[str]:
    return _verify_argv("lemma2", LEMMA2, trials, seed)


# The ten closed-form evaluators, one call each per sweep pass.
SWEEP = (
    ("lemma1", "--emp-var", "0.5", "--eps1", "0.1", "--eps2", "0.2", "--pop-mean-norm", "3"),
    (
        "prop1", "--empirical-cdnv", "0.05", "--eps1-i", "0.01", "--eps1-j", "0.02",
        "--eps2-i", "0.03", "--eps2-j", "0.04", "--mean-norm-i", "2", "--mean-norm-j", "3",
        "--pop-mean-dist", "1.5", "--emp-mean-dist", "1.4",
    ),
    (
        "prop2", "--avg-source-cdnv", "0.1", "--delta-fstar", "2", "--sup-var", "0.5",
        "--sup-feat-norm", "4", "--l", "100", "--rademacher", "0.3", "--delta", "0.05",
    ),
    (
        "prop3-eps1", "--p", "64", "--q", "4", "--l", "100", "--m-c", "500",
        "--sup-x-norm", "1", "--spectral-complexity", "3", "--delta", "0.05",
    ),
    (
        "prop3-eps2", "--p", "64", "--q", "4", "--l", "100", "--m-c", "500",
        "--sup-x-norm", "1", "--spectral-complexity", "3", "--delta", "0.05",
    ),
    ("prop4", "--p", "64", "--q", "4", "--l", "100", "--complexity-cap", "1", "--sup-x-norm", "1"),
    ("prop5-general", "--k", "5", "--n-c", "5", "--avg-cdnv", "0.01", "--spherical-p", "64"),
    ("prop5-gaussian", "--k", "5", "--p", "64", "--v-max", "0.02"),
    ("prop5-relaxed", "--k", "5", "--p", "64", "--n-c", "5", "--v-max", "0.02", "--gamma", "0.5"),
    ("lemma2", "--n", "50", "--p", "8"),
)

WORKLOADS = {
    "wide": Workload(
        why=(
            "p 512 >> 25 support rows: the p x p ridge solve dominates fewshot; "
            "binary input loads fast and 100 classes give few pairs"
        ),
        data=Data(100, 500, 512, "etf", 16.0, "binary"),
        fewshot=FewShot(k=5, n_shot=5, n_query=15, episodes=600),
        prop5_trials=20_000,
        lemma2_trials=10_000,
        reps={"analyze_s": 2, "fewshot_ncm_s": 3, "verify_prop5_s": 3, "verify_lemma2_s": 3,
              "bounds_sweep_s": 8},
    ),
    "many": Workload(
        why=(
            "1000 classes: class-pair loops and the 1000^2 JSON matrix dominate analyze, "
            "CSV parsing dominates fewshot; n 200 > p 128 bypasses a dual-form ridge"
        ),
        data=Data(1000, 40, 128, "cube", 64.0, "csv"),
        fewshot=FewShot(k=20, n_shot=10, n_query=10, episodes=300),
        prop5_trials=20_000,
        lemma2_trials=10_000,
        reps={"fewshot_ridge_s": 2, "fewshot_ncm_s": 2, "verify_prop5_s": 3, "verify_lemma2_s": 3,
              "bounds_sweep_s": 8},
    ),
    "mc": Workload(
        why=(
            "Monte Carlo --verify of prop5 and lemma2 plus a sweep of the ten closed-form "
            "bounds, where per-call CLI parser cost shows; embedding jobs are small"
        ),
        data=Data(50, 100, 64, "etf", 4.0, "binary"),
        fewshot=FewShot(k=5, n_shot=5, n_query=15, episodes=200),
        prop5_trials=200_000,
        lemma2_trials=100_000,
        reps={"setup_s": 9, "analyze_s": 5, "fewshot_ridge_s": 5, "fewshot_ncm_s": 5,
              "bounds_sweep_s": 80},
    ),
}

# Run once before timing so that imports, lazy numpy/BLAS set-up and first
# calls are paid outside the timed region.
WARMUP = Workload(
    why="warm-up",
    data=Data(8, 30, 16, "etf", 1.0, "binary"),
    fewshot=FewShot(k=5, n_shot=5, n_query=15, episodes=20),
    prop5_trials=1_000,
    lemma2_trials=1_000,
)


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    entropy = [seed & (2**64 - 1), zlib.crc32(tag.encode())]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def mixture_spec(data: Data, seed: int) -> dict:
    """The JSON document ``nckit synth`` reads for ``data``."""
    # nckit.synth is imported here so this module loads without nckit.
    from nckit import synth

    if data.means == "etf":
        means = synth.simplex_etf_means(data.classes, data.p)
    else:
        means = synth.uniform_cube_means(data.classes, data.p, derive_seed(seed, "means"))
    return {
        "class_means": means.tolist(),
        "total_variances": [data.total_variance] * data.classes,
        "samples_per_class": data.rows_per_class,
        "seed": derive_seed(seed, "spec"),
    }


def job_argvs(w: Workload, data_path: str, seed: int) -> list[tuple[str, list[list[str]], int]]:
    """One round: (end-to-end metric, the CLI calls whose summed time is one
    sample of it, samples per round)."""
    fs = w.fewshot
    fewshot = [
        "fewshot", data_path, "--k", str(fs.k), "--n-shot", str(fs.n_shot),
        "--n-query", str(fs.n_query), "--episodes", str(fs.episodes),
        "--seed", str(derive_seed(seed, "fewshot")),
    ]
    jobs = [
        ("analyze_s", [["analyze", data_path]]),
        ("fewshot_ridge_s", [fewshot + ["--head", "ridge"]]),
        ("fewshot_ncm_s", [fewshot + ["--head", "ncm"]]),
        ("verify_prop5_s", [prop5_argv(w.prop5_trials, derive_seed(seed, "prop5"))]),
        ("verify_lemma2_s", [lemma2_argv(w.lemma2_trials, derive_seed(seed, "lemma2"))]),
        ("bounds_sweep_s", [["bounds", *argv] for argv in SWEEP]),
    ]
    return [(metric, argvs, w.reps.get(metric, 1)) for metric, argvs in jobs]
