"""k-way n-shot episode sampling and frozen-feature head evaluation.

Episodes are balanced tasks drawn from a class partition: k classes, a
support set of n_shot points per class to fit a head, and a disjoint
query set of n_query points per class to score it. Two heads are
provided, both closed-form over frozen features:

* ridge: one-hot multiclass ridge regression,
  W = (F^T F + lambda I)^-1 F^T Y with lambda = alpha * n^(+1/2) by
  default (the exponent may be flipped to -1/2), found by one direct
  solve of the regularized normal equations.
* ncm: nearest class mean over the support means.

All randomness is derived from (seed, episode_index), so evaluation is
reproducible and independent of scheduling. Class selection is keyed to
the order classes first appear in the source rows rather than to label
values; relabeling classes therefore permutes reported ids without
changing which points any episode contains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import ClassPartition

LAMBDA_EXPONENTS = (0.5, -0.5)
HEADS = ("ridge", "ncm")


@dataclass(frozen=True)
class EpisodeConfig:
    """Protocol constants for one evaluation run."""

    k: int
    n_shot: int
    n_query: int
    episodes: int
    seed: int

    def __post_init__(self):
        for name in ("k", "n_shot", "n_query", "episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class Episode:
    """One sampled task: per-class support and query blocks.

    ``support`` has shape (k, n_shot, p) and ``query`` (k, n_query, p),
    both aligned with ``class_ids`` (ascending label order). Support and
    query rows are disjoint within each class by construction.
    """

    class_ids: tuple[int, ...]
    support: np.ndarray
    query: np.ndarray


def _eligible(partition: ClassPartition, need: int) -> list[int]:
    return [lab for lab in partition.appearance if partition.groups[lab].shape[0] >= need]


def sample_episode(partition: ClassPartition, cfg: EpisodeConfig, episode_index: int) -> Episode:
    """Draw episode ``episode_index`` deterministically from (seed, index).

    Classes are chosen uniformly without replacement among those holding
    at least n_shot + n_query points; within each chosen class the points
    are chosen uniformly without replacement and split support/query.
    """
    if episode_index < 0:
        raise ValueError("episode_index must be non-negative")
    need = cfg.n_shot + cfg.n_query
    eligible = _eligible(partition, need)
    if len(eligible) < cfg.k:
        raise ValueError(
            f"need {cfg.k} classes with >= {need} points, partition has {len(eligible)}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, episode_index]))
    chosen = rng.choice(len(eligible), size=cfg.k, replace=False)
    picked = []
    for slot in range(cfg.k):
        label = eligible[int(chosen[slot])]
        block = partition.groups[label]
        idx = rng.choice(block.shape[0], size=need, replace=False)
        picked.append((label, block[idx[: cfg.n_shot]], block[idx[cfg.n_shot:]]))
    picked.sort(key=lambda item: item[0])
    support = np.stack([s for _, s, _ in picked])
    query = np.stack([q for _, _, q in picked])
    support.setflags(write=False)
    query.setflags(write=False)
    return Episode(
        class_ids=tuple(label for label, _, _ in picked), support=support, query=query
    )


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Closed-form one-hot ridge readout.

    ``weights`` is p x k with columns in ascending class-id order and
    satisfies the normal equations (F^T F + lambda I) W = F^T Y.
    """

    weights: np.ndarray
    lam: float
    alpha: float
    class_ids: tuple[int, ...]


def ridge_solve(features, targets, lam: float) -> np.ndarray:
    """Solve the regularized normal equations (F^T F + lam I) W = F^T T.

    The symmetric positive-definite system (lam > 0) is solved directly
    with one LU factorization, never by forming an explicit inverse.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if features.ndim != 2 or targets.ndim != 2 or features.shape[0] != targets.shape[0]:
        raise ValueError("features and targets must be 2-D with matching row counts")
    gram = features.T @ features + lam * np.eye(features.shape[1])
    return np.linalg.solve(gram, features.T @ targets)


def ridge_fit(episode: Episode, alpha: float, lambda_exponent: float = 0.5) -> RidgeModel:
    """Fit W = (F^T F + lambda I)^-1 F^T Y on the support set.

    lambda = alpha * n ** lambda_exponent with n the total support size;
    the exponent must be +1/2 (default) or -1/2. Y is the one-hot label
    matrix with columns in ascending class-id order.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if lambda_exponent not in LAMBDA_EXPONENTS:
        raise ValueError(f"lambda_exponent must be one of {LAMBDA_EXPONENTS}")
    k, n_shot, p = episode.support.shape
    n = k * n_shot
    lam = alpha * n**lambda_exponent
    features = episode.support.reshape(n, p)
    onehot = np.repeat(np.eye(k), n_shot, axis=0)
    weights = ridge_solve(features, onehot, lam)
    weights.setflags(write=False)
    return RidgeModel(weights=weights, lam=float(lam), alpha=alpha, class_ids=episode.class_ids)


def ridge_predict(model: RidgeModel, x) -> int:
    """Class id with the largest linear score; ties go to the smaller id."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.weights.shape[0],):
        raise ValueError(f"expected a feature vector of length {model.weights.shape[0]}")
    return model.class_ids[int(np.argmax(x @ model.weights))]


@dataclass(frozen=True, eq=False)
class NcmModel:
    """Per-class support means for nearest-mean classification."""

    means: np.ndarray
    class_ids: tuple[int, ...]


def ncm_fit(episode: Episode) -> NcmModel:
    means = episode.support.mean(axis=1)
    means.setflags(write=False)
    return NcmModel(means=means, class_ids=episode.class_ids)


def ncm_predict(model: NcmModel, x) -> int:
    """Class id of the nearest mean; ties go to the smaller id."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.means.shape[1],):
        raise ValueError(f"expected a feature vector of length {model.means.shape[1]}")
    return model.class_ids[int(np.argmin(np.square(model.means - x).sum(axis=1)))]


@dataclass(frozen=True, eq=False)
class AccuracyReport:
    """Episode-averaged accuracy with a normal-approximation 95% interval."""

    head: str
    config: EpisodeConfig
    mean_accuracy: float
    ci95_halfwidth: float
    per_episode: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "head": self.head,
            "k": self.config.k,
            "n_shot": self.config.n_shot,
            "n_query": self.config.n_query,
            "episodes": self.config.episodes,
            "seed": self.config.seed,
            "mean_accuracy": self.mean_accuracy,
            "ci95_halfwidth": self.ci95_halfwidth,
            "per_episode": list(self.per_episode),
        }


def _episode_accuracy(episode: Episode, head: str, alpha: float, lambda_exponent: float) -> float:
    k, n_query, p = episode.query.shape
    queries = episode.query.reshape(k * n_query, p)
    if head == "ridge":
        model = ridge_fit(episode, alpha=alpha, lambda_exponent=lambda_exponent)
        predicted = np.argmax(queries @ model.weights, axis=1)
    else:
        model = ncm_fit(episode)
        sq_dist = np.square(queries[:, None, :] - model.means[None, :, :]).sum(axis=2)
        predicted = np.argmin(sq_dist, axis=1)
    truth = np.repeat(np.arange(k), n_query)
    return float(np.mean(predicted == truth))


def evaluate(
    partition: ClassPartition,
    cfg: EpisodeConfig,
    head: str = "ridge",
    alpha: float = 1.0,
    lambda_exponent: float = 0.5,
) -> AccuracyReport:
    """Run the episode protocol and aggregate query accuracies.

    A pure function of its arguments: episode i depends only on
    (cfg.seed, i), so serial and concurrent evaluation agree exactly.
    """
    if head not in HEADS:
        raise ValueError(f"head must be one of {HEADS}")
    if head == "ridge" and alpha <= 0:
        raise ValueError("alpha must be positive")
    accuracies = [
        _episode_accuracy(sample_episode(partition, cfg, i), head, alpha, lambda_exponent)
        for i in range(cfg.episodes)
    ]
    per_episode = np.asarray(accuracies)
    if cfg.episodes > 1:
        half = 1.96 * float(per_episode.std(ddof=1)) / np.sqrt(cfg.episodes)
    else:
        half = 0.0
    return AccuracyReport(
        head=head,
        config=cfg,
        mean_accuracy=float(per_episode.mean()),
        ci95_halfwidth=float(half),
        per_episode=tuple(float(a) for a in accuracies),
    )
