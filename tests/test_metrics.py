import json
import math

import numpy as np
import pytest

from nckit.embeddings import ClassPartition
from nckit.metrics import (
    ccnv,
    cdnv_matrix,
    cdnv_pair,
    class_stats,
    geometry,
    pseudo_inverse,
)
from nckit.synth import simplex_etf_means

from oracles import naive_ccnv, naive_cdnv_matrix


def _partition(groups):
    dim = len(next(iter(groups.values()))[0])
    return ClassPartition(dim=dim, groups={k: np.asarray(v, dtype=float) for k, v in groups.items()})


class TestClassStats:
    def test_two_point_example(self):
        stats = class_stats([[1.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(stats.mean, [2.0, 0.0])
        assert stats.variance == 1.0
        assert stats.count == 2

    def test_singleton_has_zero_variance(self):
        stats = class_stats([[5.0, 5.0]])
        np.testing.assert_array_equal(stats.mean, [5.0, 5.0])
        assert stats.variance == 0.0

    def test_gaussian_total_variance_monte_carlo(self):
        rng = np.random.default_rng(101)
        p, total_var, m = 4, 4.0, 1000
        draws = rng.normal(scale=np.sqrt(total_var / p), size=(m, p))
        stats = class_stats(draws)
        # Var of ||x - mu||^2 for a spherical Gaussian is 2 * total^2 / p
        se = math.sqrt(2 * total_var**2 / (p * m))
        assert abs(stats.variance - total_var) <= 3 * se

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_stats(np.empty((0, 3)))


class TestCdnvPair:
    def test_hand_example(self):
        a = class_stats([[0.0, 0.0], [2.0, 0.0]])
        b = class_stats([[4.0, 0.0], [6.0, 0.0]])
        assert cdnv_pair(a, b) == pytest.approx(0.0625, abs=0)

    def test_zero_variance_singletons(self):
        a = class_stats([[0.0]])
        b = class_stats([[1.0]])
        assert cdnv_pair(a, b) == 0.0

    def test_coincident_means_degenerate(self):
        a = class_stats([[0.0], [2.0]])
        b = class_stats([[-1.0], [3.0]])
        value = cdnv_pair(a, b)
        assert math.isinf(value) and value > 0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = class_stats(rng.normal(size=(7, 3)))
            b = class_stats(rng.normal(size=(5, 3)) + 2.0)
            assert cdnv_pair(a, b) == cdnv_pair(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cdnv_pair(class_stats([[0.0]]), class_stats([[0.0, 1.0]]))


class TestCdnvMatrix:
    def test_two_classes_average_is_pair_value(self):
        part = _partition({0: [[0.0, 0.0], [2.0, 0.0]], 1: [[4.0, 0.0], [6.0, 0.0]]})
        report = cdnv_matrix(part)
        assert report.average == report.matrix[0, 1] == 0.0625

    def test_matches_naive_oracle(self):
        groups = {
            0: [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
            1: [[5.0, 5.0], [6.0, 4.0]],
            2: [[-3.0, 2.0], [-4.0, 2.0], [-3.5, 2.5], [-3.0, 1.5]],
        }
        report = cdnv_matrix(_partition(groups))
        labels, matrix, average = naive_cdnv_matrix(groups)
        assert report.labels == tuple(labels)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert math.isnan(report.matrix[i, j])
                else:
                    assert report.matrix[i, j] == pytest.approx(matrix[i][j], rel=1e-12)
        assert report.average == pytest.approx(average, rel=1e-12)

    def test_collapsed_partition_all_zero(self):
        part = _partition({0: [[0.0, 0.0]] * 3, 1: [[1.0, 0.0]] * 2, 2: [[0.0, 1.0]] * 4})
        report = cdnv_matrix(part)
        off = report.matrix[~np.eye(3, dtype=bool)]
        np.testing.assert_array_equal(off, 0.0)
        assert report.average == 0.0
        assert report.degenerate_pairs == ()

    def test_degenerate_pair_flagged_infinite(self):
        part = _partition({3: [[0.0], [2.0]], 8: [[-1.0], [3.0]], 9: [[9.0], [9.0]]})
        report = cdnv_matrix(part)
        assert math.isinf(report.average)
        assert report.degenerate_pairs == ((3, 8),)
        doc = report.to_json_dict()
        assert doc["average"] == "inf"
        assert doc["matrix"][0][1] == "inf"
        assert doc["matrix"][0][0] is None
        json.dumps(doc)  # serializable without NaN/Infinity literals

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            cdnv_matrix(_partition({0: [[1.0]]}))

    def test_coincident_zero_variance_classes_are_degenerate(self):
        # 0 / 0: the pair is infinite like any coincident pair, never NaN
        part = _partition({0: [[1.0, 2.0]] * 3, 1: [[1.0, 2.0]] * 2, 2: [[0.0, 0.0], [1.0, 1.0]]})
        report = cdnv_matrix(part)
        assert report.matrix[0, 1] == report.matrix[1, 0] == math.inf
        assert report.degenerate_pairs == ((0, 1),)
        assert report.average == math.inf

    def test_affine_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            pts_a = rng.normal(size=(6, 4))
            pts_b = rng.normal(size=(9, 4)) + rng.normal(size=4)
            c = float(rng.uniform(0.1, 5.0)) * (1 if rng.random() < 0.5 else -1)
            t = rng.normal(scale=10.0, size=4)
            base = cdnv_pair(class_stats(pts_a), class_stats(pts_b))
            moved = cdnv_pair(class_stats(c * pts_a + t), class_stats(c * pts_b + t))
            assert moved == pytest.approx(base, rel=1e-10)


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_singular_diagonal(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_penrose_conditions_rank_deficient(self):
        rng = np.random.default_rng(44)
        m = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))  # rank 3 in 5x5
        inv = pseudo_inverse(m)
        np.testing.assert_allclose(m @ inv @ m, m, atol=1e-8)
        np.testing.assert_allclose(inv @ m @ inv, inv, atol=1e-8)
        np.testing.assert_allclose((m @ inv).T, m @ inv, atol=1e-8)
        np.testing.assert_allclose((inv @ m).T, inv @ m, atol=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            pseudo_inverse([[np.inf, 0.0], [0.0, 1.0]])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


class TestCcnv:
    def test_one_dimensional_hand_example(self):
        part = _partition({0: [[-1.0], [1.0]], 1: [[3.0], [5.0]]})
        assert ccnv(part) == pytest.approx(0.25, rel=1e-12)

    def test_collapsed_partition_is_zero(self):
        part = _partition({0: [[0.0, 0.0]] * 3, 1: [[2.0, 1.0]] * 5})
        assert ccnv(part) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(55)
        groups = {c: rng.normal(size=(10, 3)) + 2.0 * c for c in range(4)}
        base = ccnv(_partition(groups))
        scaled = ccnv(_partition({c: 3.0 * g for c, g in groups.items()}))
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(56)
        groups = {c: rng.normal(size=(8, 3)) + c for c in range(3)}
        t = rng.normal(scale=50.0, size=3)
        base = ccnv(_partition(groups))
        moved = ccnv(_partition({c: g + t for c, g in groups.items()}))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(57)
        groups = {c: (rng.normal(size=(12, 5)) + rng.normal(size=5)).tolist() for c in range(4)}
        assert ccnv(_partition(groups)) == pytest.approx(naive_ccnv(groups), rel=1e-9)

    def test_collinear_means_match_naive_oracle(self):
        # four class means on one line in p = 4: Sigma_B has rank 1
        rng = np.random.default_rng(58)
        direction = rng.normal(size=4)
        groups = {
            c: (rng.normal(size=(9, 4)) + (c - 1.5) * direction).tolist() for c in range(4)
        }
        assert ccnv(_partition(groups)) == pytest.approx(naive_ccnv(groups), rel=1e-9)

    def test_coincident_means_give_zero(self):
        part = _partition({0: [[-1.0, 0.0], [1.0, 0.0]], 1: [[0.0, -2.0], [0.0, 2.0]]})
        assert ccnv(part) == 0.0
        assert geometry(part).min_mean_distance == 0.0

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            ccnv(_partition({0: [[1.0]]}))


class TestGeometry:
    def test_three_mean_example(self):
        part = _partition(
            {0: [[0.0, 0.0]], 1: [[3.0, 4.0]], 2: [[0.0, 1.0]]}
        )
        report = geometry(part)
        assert report.min_mean_distance == pytest.approx(1.0, abs=0)
        assert report.argmin_pair == (0, 2)

    def test_two_singletons(self):
        part = _partition({5: [[0.0, 0.0]], 9: [[3.0, 4.0]]})
        report = geometry(part)
        assert report.min_mean_distance == 5.0
        assert report.argmin_pair == (5, 9)

    def test_etf_means_equidistant(self):
        means = simplex_etf_means(4, 6, scale=2.0)
        part = _partition({c: [means[c]] for c in range(4)})
        report = geometry(part)
        expected = 2.0 * math.sqrt(2 * 4 / 3)
        assert report.min_mean_distance == pytest.approx(expected, rel=1e-12)

    def test_tie_breaks_to_smallest_pair(self):
        # classes 0-1 and 2-3 both at distance 1
        part = _partition({0: [[0.0]], 1: [[1.0]], 2: [[10.0]], 3: [[11.0]]})
        assert geometry(part).argmin_pair == (0, 1)

    def test_tie_across_rows_keeps_first_row(self):
        # pairs (0, 3) and (1, 2) both at distance 1: row 0's nearest is the later column
        part = _partition({0: [[0.0]], 1: [[10.0]], 2: [[11.0]], 3: [[1.0]]})
        report = geometry(part)
        assert report.argmin_pair == (0, 3)
        assert report.min_mean_distance == 1.0

    def test_traces_and_global_mean(self):
        part = _partition({0: [[-1.0], [1.0]], 1: [[3.0], [5.0]]})
        report = geometry(part)
        np.testing.assert_array_equal(report.global_mean, [2.0])
        assert report.within_trace == pytest.approx(1.0)
        assert report.between_trace == pytest.approx(4.0)
        doc = report.to_json_dict()
        assert doc["argmin_pair"] == [0, 1]
        json.dumps(doc)
