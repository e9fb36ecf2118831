import itertools
import math

import numpy as np
import pytest

from nckit.embeddings import partition_by_class
from nckit.fewshot import EpisodeConfig, evaluate
from nckit.metrics import ccnv, cdnv_matrix, class_stats
from nckit.synth import (
    MixtureSpec,
    collapsed_set,
    gaussian_mixture,
    simplex_etf_means,
    uniform_cube_means,
)


class TestGaussianMixture:
    def test_zero_variance_collapses_to_means(self):
        means = np.array([[0.0, 0.0], [3.0, 1.0]])
        spec = MixtureSpec(
            class_means=means, total_variances=np.zeros(2), samples_per_class=5, seed=1
        )
        emb = gaussian_mixture(spec)
        part = partition_by_class(emb)
        for c in range(2):
            np.testing.assert_array_equal(part.groups[c], np.tile(means[c], (5, 1)))
            assert class_stats(part.groups[c]).variance == 0.0

    def test_total_variance_monte_carlo(self):
        p, total_var, m = 8, 4.0, 10000
        spec = MixtureSpec(
            class_means=np.zeros((2, p)) + np.array([[0.0], [10.0]]),
            total_variances=np.full(2, total_var),
            samples_per_class=m,
            seed=2,
        )
        part = partition_by_class(gaussian_mixture(spec))
        se = math.sqrt(2 * total_var**2 / (p * m))
        for c in range(2):
            assert abs(class_stats(part.groups[c]).variance - total_var) <= 3 * se

    def test_class_means_converge(self):
        spec = MixtureSpec(
            class_means=np.array([[1.0, -2.0, 0.5]]),
            total_variances=np.array([3.0]),
            samples_per_class=10000,
            seed=3,
        )
        part = partition_by_class(gaussian_mixture(spec))
        stats = class_stats(part.groups[0])
        se = math.sqrt(3.0 / 3 / 10000)  # per-coordinate
        np.testing.assert_allclose(stats.mean, [1.0, -2.0, 0.5], atol=3 * se)

    def test_deterministic_given_seed(self):
        spec = MixtureSpec(
            class_means=np.eye(3),
            total_variances=np.full(3, 1.0),
            samples_per_class=20,
            seed=9,
        )
        assert gaussian_mixture(spec) == gaussian_mixture(spec)

    def test_empirical_cdnv_converges_to_population_value(self):
        alpha, sigma_sq = 1.0, 0.25
        means = np.zeros((2, 4))
        means[1, 0] = alpha
        spec = MixtureSpec(
            class_means=means,
            total_variances=np.full(2, sigma_sq),
            samples_per_class=100000,
            seed=4,
        )
        report = cdnv_matrix(partition_by_class(gaussian_mixture(spec)))
        assert report.average == pytest.approx(sigma_sq / alpha**2, rel=0.05)

    def test_spec_round_trips_through_json(self):
        spec = MixtureSpec(
            class_means=np.array([[1.0, 2.0], [3.0, 4.0]]),
            total_variances=np.array([0.5, 0.5]),
            samples_per_class=7,
            seed=11,
        )
        again = MixtureSpec.from_json_dict(spec.to_json_dict())
        np.testing.assert_array_equal(again.class_means, spec.class_means)
        assert again.samples_per_class == 7 and again.seed == 11

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            MixtureSpec(
                class_means=np.eye(2),
                total_variances=np.array([-1.0, 1.0]),
                samples_per_class=1,
                seed=0,
            )
        with pytest.raises(ValueError, match="p="):
            MixtureSpec.from_json_dict(
                {
                    "p": 5,
                    "class_means": [[0.0, 1.0]],
                    "total_variances": [1.0],
                    "samples_per_class": 1,
                }
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("samples_per_class", 2.7),
            ("samples_per_class", True),
            ("samples_per_class", "10"),
            ("seed", 1.9),
            ("seed", False),
            ("p", 1.5),
            ("p", "2"),
            ("p", float("nan")),
        ],
    )
    def test_spec_integers_are_not_truncated(self, field, value):
        doc = {"p": 2, "class_means": [[0.0, 1.0]], "total_variances": [1.0],
               "samples_per_class": 3, "seed": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MixtureSpec.from_json_dict(doc)

    def test_spec_accepts_integral_floats(self):
        spec = MixtureSpec.from_json_dict(
            {"p": 1.0, "class_means": [[0.0]], "total_variances": [1.0],
             "samples_per_class": 10.0, "seed": 3.0}
        )
        assert (spec.samples_per_class, spec.seed, spec.p) == (10, 3, 1)
        assert type(spec.samples_per_class) is int and type(spec.seed) is int


class TestSimplexEtf:
    def test_two_classes_on_a_line(self):
        means = simplex_etf_means(2, 1, scale=1.0)
        assert sorted(means.ravel().tolist()) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert abs(np.linalg.norm(means[0] - means[1]) - 2.0) <= 1e-12

    @pytest.mark.parametrize("k,p,scale", [(2, 1, 1.0), (3, 2, 0.5), (5, 16, 2.0), (7, 6, 1.0)])
    def test_construction_properties(self, k, p, scale):
        means = simplex_etf_means(k, p, scale)
        assert means.shape == (k, p)
        np.testing.assert_allclose(means.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), scale, atol=1e-12)
        dists = [
            np.linalg.norm(means[i] - means[j]) for i, j in itertools.combinations(range(k), 2)
        ]
        assert max(dists) - min(dists) <= 1e-12
        assert dists[0] == pytest.approx(scale * math.sqrt(2 * k / (k - 1)), rel=1e-12)

    def test_dimension_too_small(self):
        with pytest.raises(ValueError, match="p="):
            simplex_etf_means(5, 3)


class TestUniformCube:
    def test_within_unit_cube(self):
        draws = uniform_cube_means(50, 6, seed=0)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_deterministic(self):
        np.testing.assert_array_equal(
            uniform_cube_means(10, 3, seed=5), uniform_cube_means(10, 3, seed=5)
        )

    def test_coordinate_mean_monte_carlo(self):
        n = 100000
        draws = uniform_cube_means(n, 2, seed=6)
        se = (1.0 / math.sqrt(12.0)) / math.sqrt(n)
        np.testing.assert_allclose(draws.mean(axis=0), 0.5, atol=3 * se)


class TestCollapsedSet:
    def test_collapse_metrics_are_zero(self):
        # power-of-two group size keeps the mean of identical rows bit-exact
        means = simplex_etf_means(4, 5)
        part = partition_by_class(collapsed_set(means, samples_per_class=4))
        assert cdnv_matrix(part).average == 0.0
        assert ccnv(part) == 0.0

    def test_one_shot_ncm_is_perfect(self):
        means = simplex_etf_means(3, 4)
        part = partition_by_class(collapsed_set(means, samples_per_class=2))
        cfg = EpisodeConfig(k=3, n_shot=1, n_query=1, episodes=10, seed=0)
        assert evaluate(part, cfg, head="ncm").mean_accuracy == 1.0

    def test_duplicate_means_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            collapsed_set(np.zeros((2, 3)), samples_per_class=1)


class TestMixtureSpecIntegers:
    MEANS, VARIANCES = np.eye(2), np.ones(2)

    @pytest.mark.parametrize(
        "samples,seed", [(2.7, 1.5), (2.7, 1), (3, 1.5), (True, 1), (3, "1"), (3, float("nan"))]
    )
    def test_constructor_rejects_non_integers(self, samples, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            MixtureSpec(self.MEANS, self.VARIANCES, samples, seed)

    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0])
    def test_constructor_accepts_integral_values(self, value):
        spec = MixtureSpec(self.MEANS, self.VARIANCES, value, value)
        assert (spec.samples_per_class, spec.seed) == (3, 3)
        assert type(spec.samples_per_class) is int and type(spec.seed) is int
