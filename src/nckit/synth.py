"""Synthetic labeled embedding sets and class-mean geometries.

Generators are seeded and split their random streams per class, so a
draw depends only on (seed, class, sample index) and concurrent
generation cannot change the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .embeddings import LabeledEmbeddings


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Spherical Gaussian mixture: one class per mean, with per-class
    total variance E||x - mu||^2 spread evenly over the p coordinates."""

    class_means: np.ndarray
    total_variances: np.ndarray
    samples_per_class: int
    seed: int

    def __post_init__(self):
        means = np.ascontiguousarray(self.class_means, dtype=np.float64)
        variances = np.ascontiguousarray(self.total_variances, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] == 0 or means.shape[1] == 0:
            raise ValueError("class_means must be a non-empty (k, p) array")
        if variances.shape != (means.shape[0],):
            raise ValueError("total_variances must hold one value per class")
        if (variances < 0).any():
            raise ValueError("total variances must be non-negative")
        if not np.isfinite(means).all() or not np.isfinite(variances).all():
            raise ValueError("class_means and total_variances must be finite")
        samples = integer("samples_per_class", self.samples_per_class)
        seed = integer("seed", self.seed)
        if samples < 1:
            raise ValueError("samples_per_class must be a positive integer")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        means.setflags(write=False)
        variances.setflags(write=False)
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "total_variances", variances)
        object.__setattr__(self, "samples_per_class", samples)
        object.__setattr__(self, "seed", seed)

    @property
    def k(self) -> int:
        return self.class_means.shape[0]

    @property
    def p(self) -> int:
        return self.class_means.shape[1]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MixtureSpec":
        try:
            means = doc["class_means"]
            variances = doc["total_variances"]
            samples = doc["samples_per_class"]
            seed = doc.get("seed", 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid mixture spec document: {exc}") from exc
        spec = cls(
            class_means=np.asarray(means, dtype=np.float64),
            total_variances=np.asarray(variances, dtype=np.float64),
            samples_per_class=samples,
            seed=seed,
        )
        if "p" in doc and integer("p", doc["p"]) != spec.p:
            raise ValueError(f"declared p={doc['p']} but class_means have dimension {spec.p}")
        return spec

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "class_means": [[float(v) for v in row] for row in self.class_means],
            "total_variances": [float(v) for v in self.total_variances],
            "samples_per_class": self.samples_per_class,
            "seed": self.seed,
        }


def gaussian_mixture(spec: MixtureSpec) -> LabeledEmbeddings:
    """Sample samples_per_class spherical Gaussian draws around each mean.

    Class c uses its own substream seeded by (seed, c); sample i of that
    class occupies a fixed position in the substream.
    """
    m = spec.samples_per_class
    blocks = []
    for c in range(spec.k):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, c]))
        noise = rng.standard_normal((m, spec.p))
        blocks.append(spec.class_means[c] + np.sqrt(spec.total_variances[c] / spec.p) * noise)
    labels = np.repeat(np.arange(spec.k, dtype=np.int64), m)
    return LabeledEmbeddings(labels=labels, features=np.concatenate(blocks, axis=0))


def simplex_etf_means(k: int, p: int, scale: float = 1.0) -> np.ndarray:
    """k class means forming a maximally separated regular simplex.

    The canonical frame sqrt(k/(k-1)) (e_c - (1/k) 1) lives in the
    zero-sum hyperplane of R^k; a Householder basis rotates it into k-1
    coordinates, which are zero-padded to dimension p. The result has
    zero global mean, per-mean norm equal to ``scale``, and all pairwise
    distances equal to scale * sqrt(2k / (k-1)).
    """
    k, p = integer("k", k), integer("p", p)
    if k < 2:
        raise ValueError("k must be at least 2")
    if p < k - 1:
        raise ValueError(f"p={p} is too small to embed {k} simplex vertices (need p >= {k - 1})")
    if scale <= 0:
        raise ValueError("scale must be positive")
    frame = np.sqrt(k / (k - 1.0)) * (np.eye(k) - 1.0 / k)
    w = np.full(k, 1.0 / np.sqrt(k))
    w[k - 1] -= 1.0
    householder = np.eye(k) - 2.0 * np.outer(w, w) / (w @ w)
    coords = frame @ householder[:, : k - 1]
    means = np.zeros((k, p))
    means[:, : k - 1] = coords
    return scale * means


def uniform_cube_means(k: int, p: int, seed: int) -> np.ndarray:
    """k i.i.d. uniform draws from the unit cube [0,1]^p."""
    k, p, seed = integer("k", k), integer("p", p), integer("seed", seed)
    if k < 1 or p < 1:
        raise ValueError("k and p must be positive integers")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return rng.uniform(size=(k, p))


def collapsed_set(means, samples_per_class: int) -> LabeledEmbeddings:
    """The exact-collapse limit: every sample equals its class mean."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError("means must be a non-empty (k, p) array")
    samples_per_class = integer("samples_per_class", samples_per_class)
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be a positive integer")
    if len(np.unique(means, axis=0)) != means.shape[0]:
        raise ValueError("means must be pairwise distinct")
    labels = np.repeat(np.arange(means.shape[0], dtype=np.int64), samples_per_class)
    features = np.repeat(means, samples_per_class, axis=0)
    return LabeledEmbeddings(labels=labels, features=features)
