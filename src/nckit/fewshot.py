"""k-way n-shot episode sampling and frozen-feature head evaluation.

Episodes are balanced tasks drawn from a class partition: k classes, a
support set of n_shot points per class to fit a head, and a disjoint
query set of n_query points per class to score it. Two heads are
provided, both closed-form over frozen features:

* ridge: one-hot multiclass ridge regression,
  W = (F^T F + lambda I)^-1 F^T Y with lambda = alpha * n^(+1/2) by
  default (the exponent may be flipped to -1/2). ``ridge_fit`` is the
  single-episode API and solves these p x p primal normal equations.
* ncm: nearest class mean over the support means.

``evaluate`` draws each episode as row indices into the class blocks and
gathers the rows of a bounded chunk of episodes (about 16 MB) into one
array. When the feature dimension p exceeds the support size
n = k * n_shot, each chunk takes one batched solve of the dual form
W = F^T (F F^T + lambda I)^-1 Y, an n x n system per episode; otherwise
each episode solves its primal system as ``ridge_fit`` does. Both give
the weights of ``ridge_fit`` up to round-off.

All randomness is derived from (seed, episode_index), so evaluation is
reproducible and independent of scheduling. Class selection is keyed to
the order classes first appear in the source rows rather than to label
values; relabeling classes therefore permutes reported ids without
changing which points any episode contains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .embeddings import ClassPartition

LAMBDA_EXPONENTS = (0.5, -0.5)
HEADS = ("ridge", "ncm")

# bytes of gathered episode rows that evaluate holds at once, so that its
# memory does not grow with the number of episodes
_CHUNK_BYTES = 16 << 20


@dataclass(frozen=True)
class EpisodeConfig:
    """Protocol constants for one evaluation run."""

    k: int
    n_shot: int
    n_query: int
    episodes: int
    seed: int

    def __post_init__(self):
        for name in ("k", "n_shot", "n_query", "episodes", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
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


def _eligible(partition: ClassPartition, cfg: EpisodeConfig) -> list[int]:
    """Classes holding at least n_shot + n_query points, in appearance order."""
    need = cfg.n_shot + cfg.n_query
    eligible = [lab for lab in partition.appearance if partition.groups[lab].shape[0] >= need]
    if len(eligible) < cfg.k:
        raise ValueError(
            f"need {cfg.k} classes with >= {need} points, partition has {len(eligible)}"
        )
    return eligible


def _draw(
    partition: ClassPartition, eligible: list[int], cfg: EpisodeConfig, index: int, out: np.ndarray
) -> tuple[int, ...]:
    """Draw episode ``index`` as row indices into the class blocks and gather
    the rows into ``out`` (k, n_shot + n_query, p): classes in ascending id
    order, support rows first. Returns the class ids."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    chosen = rng.choice(len(eligible), size=cfg.k, replace=False)
    labels = [eligible[int(c)] for c in chosen]
    need = out.shape[1]
    rows = [rng.choice(partition.groups[lab].shape[0], size=need, replace=False) for lab in labels]
    picked = sorted(zip(labels, rows), key=lambda item: item[0])
    for block, (label, idx) in zip(out, picked):
        np.take(partition.groups[label], idx, axis=0, out=block)
    return tuple(label for label, _ in picked)


def sample_episode(partition: ClassPartition, cfg: EpisodeConfig, episode_index: int) -> Episode:
    """Draw episode ``episode_index`` deterministically from (seed, index).

    Classes are chosen uniformly without replacement among those holding
    at least n_shot + n_query points; within each chosen class the points
    are chosen uniformly without replacement and split support/query.
    """
    episode_index = integer("episode_index", episode_index)
    if episode_index < 0:
        raise ValueError("episode_index must be non-negative")
    drawn = np.empty((cfg.k, cfg.n_shot + cfg.n_query, partition.dim))
    class_ids = _draw(partition, _eligible(partition, cfg), cfg, episode_index, drawn)
    support = np.ascontiguousarray(drawn[:, : cfg.n_shot])
    query = np.ascontiguousarray(drawn[:, cfg.n_shot :])
    support.setflags(write=False)
    query.setflags(write=False)
    return Episode(class_ids=class_ids, support=support, query=query)


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


def _require_strength(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _ridge_lambda(alpha: float, lambda_exponent: float, n: int) -> float:
    """lambda = alpha * n ** lambda_exponent, with both arguments checked."""
    _require_strength("alpha", alpha)
    if lambda_exponent not in LAMBDA_EXPONENTS:
        raise ValueError(f"lambda_exponent must be one of {LAMBDA_EXPONENTS}")
    lam = alpha * n**lambda_exponent
    _require_strength("lam", lam)
    return lam


def ridge_solve(features, targets, lam: float) -> np.ndarray:
    """Solve the regularized normal equations (F^T F + lam I) W = F^T T.

    The symmetric positive-definite system (lam > 0) is solved directly
    with one LU factorization, never by forming an explicit inverse.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    _require_strength("lam", lam)
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
    k, n_shot, p = episode.support.shape
    n = k * n_shot
    lam = _ridge_lambda(alpha, lambda_exponent, n)
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


def _ridge_weights(support: np.ndarray, lam: float) -> np.ndarray:
    """Ridge weights (c, p, k) for c support sets (c, k, n_shot, p): one
    batched solve of the dual n x n systems when p > n = k * n_shot, else
    the primal p x p system of each episode."""
    c, k, n_shot, p = support.shape
    n = k * n_shot
    features = support.reshape(c, n, p)
    onehot = np.repeat(np.eye(k), n_shot, axis=0)
    if p <= n:  # a batched primal solve measured no faster than this loop
        return np.stack([ridge_solve(f, onehot, lam) for f in features])
    transposed = features.transpose(0, 2, 1)
    gram = features @ transposed
    gram[:, range(n), range(n)] += lam
    return transposed @ np.linalg.solve(gram, np.broadcast_to(onehot, (c, n, k)))


def _nearest_support_mean(support: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Slot of the nearest support mean for every query, shape (c, k, n_query)."""
    means = support.mean(axis=2)
    c, k, n_query, p = query.shape
    predicted = np.empty((c, k * n_query), dtype=np.intp)
    for e in range(c):
        queries = query[e].reshape(k * n_query, p)
        diff = queries[:, None, :] - means[e][None, :, :]
        predicted[e] = np.argmin(np.square(diff, out=diff).sum(axis=2), axis=1)
    return predicted.reshape(c, k, n_query)


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
    Per-episode accuracies equal those of ``sample_episode`` followed by
    ``ridge_fit`` or ``ncm_fit``, unless round-off decides a near-tie.
    """
    if head not in HEADS:
        raise ValueError(f"head must be one of {HEADS}")
    if head == "ridge":
        lam = _ridge_lambda(alpha, lambda_exponent, cfg.k * cfg.n_shot)
    eligible = _eligible(partition, cfg)
    need = cfg.n_shot + cfg.n_query
    chunk = max(1, _CHUNK_BYTES // (cfg.k * need * partition.dim * 8))
    drawn = np.empty((min(chunk, cfg.episodes), cfg.k, need, partition.dim))
    truth = np.arange(cfg.k)[:, None]
    per_episode = np.empty(cfg.episodes)
    for start in range(0, cfg.episodes, chunk):
        batch = drawn[: min(chunk, cfg.episodes - start)]
        for offset, out in enumerate(batch):
            _draw(partition, eligible, cfg, start + offset, out)
        support, query = batch[:, :, : cfg.n_shot], batch[:, :, cfg.n_shot :]
        if head == "ridge":
            predicted = np.argmax(query @ _ridge_weights(support, lam)[:, None], axis=3)
        else:
            predicted = _nearest_support_mean(support, query)
        hits = (predicted == truth).reshape(len(batch), -1)
        per_episode[start : start + len(batch)] = hits.mean(axis=1)
    if cfg.episodes > 1:
        half = 1.96 * float(per_episode.std(ddof=1)) / np.sqrt(cfg.episodes)
    else:
        half = 0.0
    return AccuracyReport(
        head=head,
        config=cfg,
        mean_accuracy=float(per_episode.mean()),
        ci95_halfwidth=float(half),
        per_episode=tuple(float(a) for a in per_episode),
    )
