"""Collapse statistics over class partitions.

Variance is always the total variance E||x - mu||^2 with the population
convention (divide by the count, never count - 1). The pairwise collapse
ratio of two point sets is

    (Var(S1) + Var(S2)) / (2 * ||mean(S1) - mean(S2)||^2),

zero when every point sits on its class mean and +inf when the two means
coincide. The covariance-based variant is Tr(Sigma_W @ pinv(Sigma_B)),
where Sigma_W averages (x - mu_c)(x - mu_c)^T over all samples and
Sigma_B averages (mu_c - mu_G)(mu_c - mu_G)^T over classes, mu_G being
the mean of the class means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import ClassPartition


def json_float(x: float):
    """``x`` as strict JSON allows it: infinities as strings, NaN as null."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return None
    return float(x)


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Empirical mean, total variance, and count of one class's features."""

    mean: np.ndarray
    variance: float
    count: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def class_stats(points) -> ClassStats:
    """Coordinate-wise mean and average squared distance to it.

    The variance divides by the count (population convention), so a
    singleton set has variance exactly 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("class_stats needs a non-empty 2-D point set")
    mean = pts.mean(axis=0)
    variance = float(np.square(pts - mean).sum(axis=1).mean())
    return ClassStats(mean=mean, variance=variance, count=pts.shape[0])


def cdnv_pair(a: ClassStats, b: ClassStats) -> float:
    """Variance of the pair over twice the squared distance of their means.

    Returns +inf when the means coincide exactly (the degenerate case);
    callers can treat ``math.isinf`` of the result as the degeneracy flag.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sq_dist = float(np.square(a.mean - b.mean).sum())
    if sq_dist == 0.0:
        return math.inf
    return (a.variance + b.variance) / (2.0 * sq_dist)


@dataclass(frozen=True, eq=False)
class CdnvReport:
    """Pairwise collapse matrix over classes with its off-diagonal average.

    ``matrix`` is symmetric with NaN on the (undefined) diagonal. The
    average is the arithmetic mean of the finite off-diagonal entries and
    is reported as +inf whenever any class pair has coincident means; such
    pairs are listed in ``degenerate_pairs``.
    """

    labels: tuple[int, ...]
    matrix: np.ndarray
    average: float
    degenerate_pairs: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        k = len(self.labels)
        rows = [
            [None if i == j else json_float(float(self.matrix[i, j])) for j in range(k)]
            for i in range(k)
        ]
        return {
            "labels": list(self.labels),
            "matrix": rows,
            "average": json_float(self.average),
            "degenerate_pairs": [list(pair) for pair in self.degenerate_pairs],
        }


def cdnv_matrix(partition: ClassPartition) -> CdnvReport:
    """Pairwise collapse values over all unordered class pairs."""
    labels = partition.class_ids
    k = len(labels)
    if k < 2:
        raise ValueError("cdnv_matrix needs at least 2 classes")
    stats = [class_stats(partition.groups[lab]) for lab in labels]
    matrix = np.full((k, k), np.nan)
    degenerate = []
    off_diag = []
    for i in range(k):
        for j in range(i + 1, k):
            value = cdnv_pair(stats[i], stats[j])
            matrix[i, j] = matrix[j, i] = value
            if math.isinf(value):
                degenerate.append((labels[i], labels[j]))
            else:
                off_diag.append(value)
    average = math.inf if degenerate else float(np.mean(off_diag))
    matrix.setflags(write=False)
    return CdnvReport(
        labels=labels,
        matrix=matrix,
        average=average,
        degenerate_pairs=tuple(degenerate),
    )


def pseudo_inverse(matrix, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse via SVD with singular-value thresholding.

    Singular values below ``rel_tol`` times the largest one are treated
    as zero; the default tolerance is max(shape) * machine epsilon, the
    conventional rank-detection threshold.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("pseudo_inverse expects a 2-D matrix")
    if not np.isfinite(m).all():
        raise ValueError("pseudo_inverse input must be finite")
    if rel_tol is None:
        rel_tol = max(m.shape) * np.finfo(np.float64).eps
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cutoff = rel_tol * (s[0] if s.size else 0.0)
    inv_s = np.where(s > cutoff, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (vt.T * inv_s) @ u.T


def _scatter(partition: ClassPartition):
    """Class means, their global mean, and the within/between covariances."""
    labels = partition.class_ids
    dim = partition.dim
    class_means = np.stack([partition.groups[lab].mean(axis=0) for lab in labels])
    global_mean = class_means.mean(axis=0)
    total = partition.total_rows
    sigma_w = np.zeros((dim, dim))
    for lab, mean in zip(labels, class_means):
        centered = partition.groups[lab] - mean
        sigma_w += centered.T @ centered
    sigma_w /= total
    centered_means = class_means - global_mean
    sigma_b = centered_means.T @ centered_means / len(labels)
    return class_means, global_mean, sigma_w, sigma_b


def ccnv(partition: ClassPartition) -> float:
    """Within-class covariance traced against the pseudoinverse of the
    between-class covariance: Tr(Sigma_W @ pinv(Sigma_B))."""
    if partition.n_classes < 2:
        raise ValueError("ccnv needs at least 2 classes")
    _, _, sigma_w, sigma_b = _scatter(partition)
    return float(np.trace(sigma_w @ pseudo_inverse(sigma_b)))


@dataclass(frozen=True, eq=False)
class GeometryReport:
    """Minimal class-mean distance plus global scatter summaries."""

    min_mean_distance: float
    argmin_pair: tuple[int, int]
    global_mean: np.ndarray
    within_trace: float
    between_trace: float

    def to_json_dict(self) -> dict:
        return {
            "min_mean_distance": json_float(self.min_mean_distance),
            "argmin_pair": list(self.argmin_pair),
            "global_mean": [float(v) for v in self.global_mean],
            "within_trace": json_float(self.within_trace),
            "between_trace": json_float(self.between_trace),
        }


def geometry(partition: ClassPartition) -> GeometryReport:
    """Minimum pairwise class-mean distance with its achieving pair.

    Ties are broken toward the lexicographically smallest (id, id) pair,
    which falls out of scanning pairs in ascending label order with a
    strict improvement test.
    """
    labels = partition.class_ids
    if len(labels) < 2:
        raise ValueError("geometry needs at least 2 classes")
    class_means, global_mean, sigma_w, sigma_b = _scatter(partition)
    best = math.inf
    best_pair = (labels[0], labels[1])
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            dist = float(np.linalg.norm(class_means[i] - class_means[j]))
            if dist < best:
                best = dist
                best_pair = (labels[i], labels[j])
    return GeometryReport(
        min_mean_distance=best,
        argmin_pair=best_pair,
        global_mean=global_mean,
        within_trace=float(np.trace(sigma_w)),
        between_trace=float(np.trace(sigma_b)),
    )
