"""Closed-form generalization-bound evaluators and Monte Carlo verifiers.

Each evaluator is pure arithmetic over caller-supplied inputs (empirical
collapse values, generalization-gap terms, suprema, Rademacher values).
Nothing here estimates those inputs from data; the point is to make the
bound formulas testable in isolation.

The two Monte Carlo verifiers check the probabilistic statements against
sampling oracles: the nearest-mean error bounds on synthetic spherical
Gaussian class models, and the minimal-distance lower bound for uniform
points in the unit cube. Both derive per-trial randomness from
(seed, trial index) through a fixed chunking scheme, so results are
deterministic and independent of scheduling. A check is "satisfied" when
the empirical estimate respects the bound within three standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .metrics import json_float, pair_sq_dist_rows, pair_sq_dists

_CHUNK = 4096
_RELAXED_GAMMA_GRID = tuple(g / 20 for g in range(1, 20))  # 0.05 .. 0.95


def _require_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


def lemma1_variance_bound(
    emp_var: float, eps1: float, eps2: float, pop_mean_norm: float
) -> float:
    """Population-variance bound from its empirical counterpart:
    emp_var + eps2 + 2 * pop_mean_norm * eps1 + eps1**2."""
    _require_nonnegative(emp_var=emp_var, eps1=eps1, eps2=eps2, pop_mean_norm=pop_mean_norm)
    return emp_var + eps2 + 2.0 * pop_mean_norm * eps1 + eps1**2


@dataclass(frozen=True)
class Prop1Inputs:
    """Inputs for the same-class generalization bound on the pairwise
    collapse value: per-class gap terms, mean norms, and the population
    and empirical mean distances."""

    empirical_cdnv: float
    eps1_i: float
    eps1_j: float
    eps2_i: float
    eps2_j: float
    mean_norm_i: float
    mean_norm_j: float
    pop_mean_dist: float
    emp_mean_dist: float

    def __post_init__(self):
        _require_nonnegative(
            empirical_cdnv=self.empirical_cdnv,
            eps1_i=self.eps1_i,
            eps1_j=self.eps1_j,
            eps2_i=self.eps2_i,
            eps2_j=self.eps2_j,
            mean_norm_i=self.mean_norm_i,
            mean_norm_j=self.mean_norm_j,
        )
        if not (0 < self.pop_mean_dist < math.inf and 0 < self.emp_mean_dist < math.inf):
            raise ValueError("mean distances must be finite and strictly positive")


def prop1_bound(inputs: Prop1Inputs) -> float:
    """(empirical value + B) * (1 + A)^2 with A the summed mean-gap terms
    over the population mean distance and B the averaged variance-gap
    terms over the squared empirical mean distance."""
    a = (inputs.eps1_i + inputs.eps1_j) / inputs.pop_mean_dist
    gap_i = lemma1_variance_bound(0.0, inputs.eps1_i, inputs.eps2_i, inputs.mean_norm_i)
    gap_j = lemma1_variance_bound(0.0, inputs.eps1_j, inputs.eps2_j, inputs.mean_norm_j)
    b = 0.5 * (gap_i + gap_j) / inputs.emp_mean_dist**2
    return (inputs.empirical_cdnv + b) * (1.0 + a) ** 2


@dataclass(frozen=True)
class Prop2Inputs:
    """Inputs for the new-class bound: average source collapse value,
    class-separation infimum, variance and feature-norm suprema, source
    class count, Rademacher value, and confidence level."""

    avg_source_cdnv: float
    delta_fstar: float
    sup_var: float
    sup_feat_norm: float
    l: int
    rademacher: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "l", integer("l", self.l))
        _require_nonnegative(
            avg_source_cdnv=self.avg_source_cdnv,
            sup_var=self.sup_var,
            sup_feat_norm=self.sup_feat_norm,
            rademacher=self.rademacher,
        )
        if not 0 < self.delta_fstar < math.inf:
            raise ValueError("delta_fstar must be finite and strictly positive")
        if self.l < 2:
            raise ValueError("l must be at least 2")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def prop2_bound(inputs: Prop2Inputs) -> float:
    """Three-term sum: the average source collapse value, a Rademacher
    term scaled by (8 + 16 supVar / Delta) sqrt(2 pi log l) / ((l-1)
    Delta^2), and a confidence term (1 + 4 sup||f|| / Delta) 2
    sqrt(log(1/delta)) supVar / (sqrt(l) Delta^2)."""
    d = inputs.delta_fstar
    rademacher_term = (
        (8.0 + 16.0 * inputs.sup_var / d)
        * math.sqrt(2.0 * math.pi * math.log(inputs.l))
        * inputs.rademacher
        / ((inputs.l - 1) * d**2)
    )
    confidence_term = (
        (1.0 + 4.0 * inputs.sup_feat_norm / d)
        * 2.0
        * math.sqrt(math.log(1.0 / inputs.delta))
        * inputs.sup_var
        / (math.sqrt(inputs.l) * d**2)
    )
    return inputs.avg_source_cdnv + rademacher_term + confidence_term


@dataclass(frozen=True)
class ReluBoundInputs:
    """Inputs for the ReLU feature-map concentration and complexity
    bounds: layer count q, feature dim p, source class count l, per-class
    sample count m_c, input-norm supremum, spectral complexity of the
    returned network, the complexity cap M, and confidence delta."""

    p: int
    q: int
    l: int
    m_c: int
    sup_x_norm: float
    spectral_complexity: float
    M: float
    delta: float

    def __post_init__(self):
        for name in ("p", "q", "l", "m_c"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0 < self.sup_x_norm < math.inf:
            raise ValueError("sup_x_norm must be finite and strictly positive")
        # M = 0 is admitted so the degenerate zero-complexity class evaluates to 0
        _require_nonnegative(spectral_complexity=self.spectral_complexity, M=self.M)
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def prop3_eps1(inputs: ReluBoundInputs) -> float:
    """First-moment concentration: p (C+1) sup||x|| / sqrt(m_c) times
    (3 sqrt(q) + 2 + sqrt(log(4 p l / delta) / 2) + sqrt(log(C+1)))."""
    c = inputs.spectral_complexity
    front = inputs.p * (c + 1.0) * inputs.sup_x_norm / math.sqrt(inputs.m_c)
    bracket = (
        3.0 * math.sqrt(inputs.q)
        + 2.0
        + math.sqrt(math.log(4.0 * inputs.p * inputs.l / inputs.delta) / 2.0)
        + math.sqrt(math.log(c + 1.0))
    )
    return front * bracket


def prop3_eps2(inputs: ReluBoundInputs) -> float:
    """Second-moment concentration: p M^2 sup||x||^2 / sqrt(m_c) times
    (6 sqrt(q) + 4 + 3 sqrt(log(4 l / delta) / 2) + 3 sqrt(log(C+1)))."""
    c = inputs.spectral_complexity
    front = inputs.p * inputs.M**2 * inputs.sup_x_norm**2 / math.sqrt(inputs.m_c)
    bracket = (
        6.0 * math.sqrt(inputs.q)
        + 4.0
        + 3.0 * math.sqrt(math.log(4.0 * inputs.l / inputs.delta) / 2.0)
        + 3.0 * math.sqrt(math.log(c + 1.0))
    )
    return front * bracket


def prop4_rademacher_bound(inputs: ReluBoundInputs) -> float:
    """Rademacher complexity of the mean/variance map over l classes:
    sqrt(l) (1.5 sqrt(q) + 1) M sup||x|| (1 + 4 p M sup||x||)."""
    return (
        math.sqrt(inputs.l)
        * (1.5 * math.sqrt(inputs.q) + 1.0)
        * inputs.M
        * inputs.sup_x_norm
        * (1.0 + 4.0 * inputs.p * inputs.M * inputs.sup_x_norm)
    )


def prop5_general_bound(
    k: int, n_c: int, avg_cdnv: float, spherical_p: int | None = None
) -> float:
    """Nearest-mean error bound 16 (k-1) (1/s + 1/n_c) * avg collapse
    value, with s = p for spherically symmetric class-conditionals and
    s = 1 otherwise."""
    k, n_c = integer("k", k), integer("n_c", n_c)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n_c < 1:
        raise ValueError("n_c must be a positive integer")
    _require_nonnegative(avg_cdnv=avg_cdnv)
    s = 1 if spherical_p is None else integer("spherical_p", spherical_p)
    if s < 1:
        raise ValueError("spherical_p must be a positive integer")
    return 16.0 * (k - 1) * (1.0 / s + 1.0 / n_c) * avg_cdnv


def prop5_gaussian_bound(k: int, p: int, v_max: float) -> float:
    """Spherical-Gaussian error bound 3 (k-1) exp(-p / (32 v)) / (5 v)^(p/2),
    valid only for v = v_max <= 1/16. Evaluated in log space."""
    k, p = integer("k", k), integer("p", p)
    if k < 2:
        raise ValueError("k must be at least 2")
    if p < 1:
        raise ValueError("p must be a positive integer")
    if not 0 < v_max < math.inf:
        raise ValueError("v_max must be finite and strictly positive")
    if v_max > 1.0 / 16.0:
        raise ValueError(f"v_max={v_max} violates the precondition v_max <= 1/16")
    log_value = (
        math.log(3.0 * (k - 1)) - p / (32.0 * v_max) - (p / 2.0) * math.log(5.0 * v_max)
    )
    return math.exp(log_value) if log_value > -745.0 else 0.0


def prop5_relaxed_bound(k: int, p: int, n_c: int, v_max: float, gamma: float) -> float:
    """Two-term relaxed Gaussian bound, valid for v_max <= gamma^2 n_c / 4:

    (k-1) [ sqrt(2 v / ((1-gamma)^2 pi p)) exp(-(1-gamma)^2 p / (4 v))
            + (n_c gamma^2 e / (4 v))^p exp(-gamma^2 n_c p / (4 v)) ].

    The second term is evaluated in log space to avoid overflow of the
    power factor at small v.
    """
    k, p, n_c = integer("k", k), integer("p", p), integer("n_c", n_c)
    if k < 2:
        raise ValueError("k must be at least 2")
    if p < 1 or n_c < 1:
        raise ValueError("p and n_c must be positive integers")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0 < v_max < math.inf:
        raise ValueError("v_max must be finite and strictly positive")
    threshold = gamma**2 * n_c / 4.0
    if v_max > threshold:
        raise ValueError(
            f"v_max={v_max} violates the precondition v_max <= gamma^2 * n_c / 4 = {threshold}"
        )
    rate1 = (1.0 - gamma) ** 2 * p / (4.0 * v_max)
    term1 = math.sqrt(2.0 * v_max / ((1.0 - gamma) ** 2 * math.pi * p)) * (
        math.exp(-rate1) if rate1 < 745.0 else 0.0
    )
    log_term2 = p * math.log(n_c * gamma**2 * math.e / (4.0 * v_max)) - (
        gamma**2 * n_c * p / (4.0 * v_max)
    )
    term2 = math.exp(log_term2) if log_term2 > -745.0 else 0.0
    return (k - 1) * (term1 + term2)


def lemma2_lower_bound(n: int, p: int) -> float:
    """Expected minimal pairwise distance of n uniform points in [0,1]^p
    is at least D* (1 - 1/(p+1)) with
    D* = (2 / (n (n-1)))^(1/p) * Gamma(p/2 + 1)^(1/p) / sqrt(pi),
    computed through log-Gamma so large p cannot overflow."""
    n, p = integer("n", n), integer("p", p)
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < 1:
        raise ValueError("p must be a positive integer")
    log_m = math.log(n * (n - 1) / 2.0) + (p / 2.0) * math.log(math.pi) - math.lgamma(p / 2.0 + 1.0)
    d_star = math.exp(-log_m / p)
    return d_star * (1.0 - 1.0 / (p + 1))


@dataclass(frozen=True, eq=False)
class GaussianClassModel:
    """k spherical Gaussian class-conditionals in dimension p.

    ``total_variances`` holds E||x - mu_c||^2 per class, so each
    coordinate is sampled with variance total_variance / p. Means must be
    pairwise distinct so that the worst-case variance-to-separation ratio
    is finite.
    """

    means: np.ndarray
    total_variances: np.ndarray
    spherical: bool = True

    def __post_init__(self):
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        variances = np.ascontiguousarray(self.total_variances, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValueError("means must be a (k, p) array with k >= 2")
        if variances.shape != (means.shape[0],):
            raise ValueError("total_variances must hold one value per class")
        if not ((variances > 0) & np.isfinite(variances)).all():
            raise ValueError("total variances must be finite and strictly positive")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        means.setflags(write=False)
        variances.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "total_variances", variances)
        if pair_sq_dists(means)[2].min() == 0.0:
            raise ValueError("degenerate model: coincident class means")

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]

    def avg_cdnv(self) -> float:
        """Population collapse value averaged over all class pairs."""
        i, j, sq = pair_sq_dists(self.means)
        v = self.total_variances
        return float(((v[i] + v[j]) / (2.0 * sq)).mean())

    def v_max(self) -> float:
        """Worst ordered-pair ratio Var(P_i) / ||mu_i - mu_j||^2, taken over
        unordered pairs as max(Var(P_i), Var(P_j)) / ||mu_i - mu_j||^2."""
        i, j, sq = pair_sq_dists(self.means)
        v = self.total_variances
        return float((np.maximum(v[i], v[j]) / sq).max())

    def is_equal_variance(self, rel_tol: float = 1e-9) -> bool:
        v = self.total_variances
        return bool(np.max(v) - np.min(v) <= rel_tol * np.max(v))

    def is_equidistant(self, rel_tol: float = 1e-9) -> bool:
        d = pair_sq_dists(self.means)[2]
        return bool(np.max(d) - np.min(d) <= rel_tol * np.max(d))


def prop5_bound_menu(model: GaussianClassModel, n_c: int) -> dict[str, float]:
    """Every nearest-mean error bound whose precondition the model meets.

    The Gaussian and relaxed bounds are only offered when the model has
    equal variances and equidistant (simplex) means, matching the
    assumptions under which they are derived; the relaxed bound is
    minimized over a fixed gamma grid subject to its own precondition.
    """
    n_c = integer("n_c", n_c)
    avg = model.avg_cdnv()
    menu = {"prop5-general": prop5_general_bound(model.k, n_c, avg)}
    if model.spherical:
        menu["prop5-spherical"] = prop5_general_bound(model.k, n_c, avg, spherical_p=model.p)
    if model.spherical and model.is_equal_variance() and model.is_equidistant():
        v = model.v_max()
        if v <= 1.0 / 16.0:
            menu["prop5-gaussian"] = prop5_gaussian_bound(model.k, model.p, v)
        feasible = [
            prop5_relaxed_bound(model.k, model.p, n_c, v, g)
            for g in _RELAXED_GAMMA_GRID
            if v <= g**2 * n_c / 4.0
        ]
        if feasible:
            menu["prop5-relaxed"] = min(feasible)
    return menu


@dataclass(frozen=True, eq=False)
class BoundCheckReport:
    """A bound value against a Monte Carlo estimate of the bounded
    quantity, satisfied when the estimate respects the bound within three
    standard errors."""

    bound_name: str
    params: dict
    bound_value: float
    empirical_estimate: float
    std_error: float
    trials: int
    seed: int
    satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "params": self.params,
            "bound_value": json_float(self.bound_value),
            "empirical_estimate": json_float(self.empirical_estimate),
            "std_error": json_float(self.std_error),
            "trials": self.trials,
            "seed": self.seed,
            "satisfied": self.satisfied,
        }


def _chunked(trials: int):
    """Index, first trial and size of each fixed-size chunk of trials."""
    for chunk_index, start in enumerate(range(0, trials, _CHUNK)):
        yield chunk_index, start, min(_CHUNK, trials - start)


def verify_prop5_mc(
    model: GaussianClassModel, n_c: int, trials: int, seed: int
) -> BoundCheckReport:
    """Monte Carlo check of the tightest applicable nearest-mean bound.

    Each trial draws a fresh support set (n_c points per class), one
    query from a uniformly chosen class, and classifies it by nearest
    empirical support mean. The error frequency is compared against the
    minimum over all applicable closed-form bounds.
    """
    n_c, trials, seed = integer("n_c", n_c), integer("trials", trials), integer("seed", seed)
    if n_c < 1:
        raise ValueError("n_c must be a positive integer")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    menu = prop5_bound_menu(model, n_c)
    bound_name = min(menu, key=menu.get)
    bound_value = menu[bound_name]

    k, p = model.k, model.p
    coord_std = np.sqrt(model.total_variances / p)
    errors = 0
    for chunk_index, _, size in _chunked(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        support = rng.standard_normal((size, k, n_c, p))
        support *= coord_std[None, :, None, None]
        support += model.means[None, :, None, :]
        emp_means = support.mean(axis=2)
        query_class = rng.integers(0, k, size=size)
        query = rng.standard_normal((size, p))
        query *= coord_std[query_class][:, None]
        query += model.means[query_class]
        sq_dist = np.square(query[:, None, :] - emp_means).sum(axis=2)
        predicted = np.argmin(sq_dist, axis=1)
        errors += int(np.count_nonzero(predicted != query_class))

    estimate = errors / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return BoundCheckReport(
        bound_name=bound_name,
        params={
            "k": k,
            "p": p,
            "n_c": n_c,
            "v_max": model.v_max(),
            "avg_cdnv": model.avg_cdnv(),
            "spherical": model.spherical,
            "candidates": {name: value for name, value in sorted(menu.items())},
        },
        bound_value=bound_value,
        empirical_estimate=estimate,
        std_error=std_error,
        trials=trials,
        seed=seed,
        satisfied=estimate <= bound_value + 3.0 * std_error,
    )


def verify_lemma2_mc(n: int, p: int, trials: int, seed: int) -> BoundCheckReport:
    """Monte Carlo check of the minimal-distance lower bound.

    Each trial draws n uniform points in [0,1]^p and records the minimum
    pairwise distance; the trial mean must stay above the closed-form
    bound minus three standard errors.
    """
    n, p = integer("n", n), integer("p", p)
    trials, seed = integer("trials", trials), integer("seed", seed)
    if n < 2:
        raise ValueError("n must be at least 2")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    bound = lemma2_lower_bound(n, p)
    sq_mins = np.full(trials, np.inf)
    for chunk_index, start, size in _chunked(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        points = rng.uniform(size=(size, n, p))
        best = sq_mins[start : start + size]
        for sq in pair_sq_dist_rows(points):
            np.minimum(best, sq.min(axis=-1), out=best)
    mins = np.sqrt(sq_mins)

    estimate = float(mins.mean())
    std_error = float(mins.std(ddof=1) / math.sqrt(trials))
    return BoundCheckReport(
        bound_name="lemma2",
        params={"n": n, "p": p},
        bound_value=bound,
        empirical_estimate=estimate,
        std_error=std_error,
        trials=trials,
        seed=seed,
        satisfied=estimate >= bound - 3.0 * std_error,
    )
