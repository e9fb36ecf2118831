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
        return {
            "labels": list(self.labels),
            # json_float writes the NaN diagonal as null
            "matrix": [[json_float(v) for v in row] for row in self.matrix.tolist()],
            "average": json_float(self.average),
            "degenerate_pairs": [list(pair) for pair in self.degenerate_pairs],
        }


def pair_sq_dist_rows(points):
    """Squared distances over the upper triangle of row pairs, one row at a time.

    For each row i of ``points`` (shape (..., n, p), leading axes are batch
    axes) yields the (..., n - i - 1) squared distances to rows i+1..n-1.
    The explicit difference form avoids the cancellation of the Gram
    shortcut ||a||^2 + ||b||^2 - 2 a.b.
    """
    for i in range(points.shape[-2] - 1):
        diff = points[..., i + 1 :, :] - points[..., i : i + 1, :]
        yield np.square(diff, out=diff).sum(axis=-1)
        del diff  # free this row block before the next one is allocated


def pair_sq_dists(points):
    """Row indices (i, j) of every pair i < j of an (n, p) array in row-major
    order, with the pairs' squared distances."""
    i, j = np.triu_indices(points.shape[0], 1)
    return i, j, np.concatenate(list(pair_sq_dist_rows(points)))


def _class_moments(partition: ClassPartition):
    """Class means (K, p), total variances and counts in ascending label order."""
    stats = [class_stats(partition.groups[lab]) for lab in partition.class_ids]
    means = np.stack([st.mean for st in stats])
    variances = np.array([st.variance for st in stats])
    counts = np.array([st.count for st in stats])
    return means, variances, counts


def cdnv_matrix(partition: ClassPartition) -> CdnvReport:
    """Pairwise collapse values over all unordered class pairs."""
    labels = partition.class_ids
    k = len(labels)
    if k < 2:
        raise ValueError("cdnv_matrix needs at least 2 classes")
    means, variances, _ = _class_moments(partition)
    i, j, sq = pair_sq_dists(means)
    # coincident means give +inf, also for two zero-variance classes (not 0/0)
    values = np.full_like(sq, np.inf)
    np.divide(variances[i] + variances[j], 2.0 * sq, out=values, where=sq > 0)
    matrix = np.full((k, k), np.nan)
    matrix[i, j] = matrix[j, i] = values
    matrix.setflags(write=False)
    degenerate = np.flatnonzero(np.isinf(values))
    return CdnvReport(
        labels=labels,
        matrix=matrix,
        average=math.inf if degenerate.size else float(np.mean(values)),
        degenerate_pairs=tuple((labels[i[n]], labels[j[n]]) for n in degenerate),
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


def ccnv(partition: ClassPartition) -> float:
    """Within-class covariance traced against the pseudoinverse of the
    between-class covariance: Tr(Sigma_W @ pinv(Sigma_B)).

    With the thin SVD C = U S V^T of the K x p centered class means,
    pinv(Sigma_B) = K sum_i v_i v_i^T / s_i^2, so the trace is
    K sum_i ||X_c v_i||^2 / (N s_i^2) over the within-class deviations
    X_c. Directions follow ``pseudo_inverse``'s rank rule on Sigma_B
    (s_i^2 > p * eps * s_0^2); no p x p matrix is formed.
    """
    if partition.n_classes < 2:
        raise ValueError("ccnv needs at least 2 classes")
    means, _, _ = _class_moments(partition)
    _, s, vt = np.linalg.svd(means - means.mean(axis=0), full_matrices=False)
    keep = np.square(s) > partition.dim * np.finfo(np.float64).eps * s[0] ** 2
    basis = vt[keep].T
    projected = np.zeros(basis.shape[1])
    for lab, mean in zip(partition.class_ids, means):
        projected += np.square((partition.groups[lab] - mean) @ basis).sum(axis=0)
    return float(len(means) * (projected / np.square(s[keep])).sum() / partition.total_rows)


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

    Ties are broken toward the lexicographically smallest (id, id) pair:
    pairs are listed in row-major order and ``argmin`` takes the first.
    """
    labels = partition.class_ids
    if len(labels) < 2:
        raise ValueError("geometry needs at least 2 classes")
    means, variances, counts = _class_moments(partition)
    i, j, sq = pair_sq_dists(means)
    best = int(np.argmin(sq))
    global_mean = means.mean(axis=0)
    return GeometryReport(
        min_mean_distance=float(np.linalg.norm(means[i[best]] - means[j[best]])),
        argmin_pair=(labels[i[best]], labels[j[best]]),
        global_mean=global_mean,
        within_trace=float((counts * variances).sum() / partition.total_rows),
        between_trace=float(np.square(means - global_mean).sum(axis=1).mean()),
    )
