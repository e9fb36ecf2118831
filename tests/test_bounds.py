import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nckit.bounds as bounds_mod
from nckit.bounds import (
    GaussianClassModel,
    Prop1Inputs,
    Prop2Inputs,
    ReluBoundInputs,
    lemma1_variance_bound,
    lemma2_lower_bound,
    prop1_bound,
    prop2_bound,
    prop3_eps1,
    prop3_eps2,
    prop4_rademacher_bound,
    prop5_bound_menu,
    prop5_gaussian_bound,
    prop5_general_bound,
    prop5_relaxed_bound,
    verify_lemma2_mc,
    verify_prop5_mc,
)
from nckit.cli import _BOUNDS
from nckit.synth import simplex_etf_means


def _etf_model(k, p, v_max, mean_dist=1.0):
    scale = mean_dist / math.sqrt(2.0 * k / (k - 1.0))
    return GaussianClassModel(
        means=simplex_etf_means(k, p, scale=scale),
        total_variances=np.full(k, v_max * mean_dist**2),
    )


class TestLemma1:
    def test_zero_gap(self):
        assert lemma1_variance_bound(0.5, 0.0, 0.0, 1.0) == 0.5

    def test_hand_arithmetic(self):
        assert lemma1_variance_bound(0.5, 0.1, 0.02, 1.0) == pytest.approx(0.73, rel=1e-12)

    def test_all_zero(self):
        assert lemma1_variance_bound(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lemma1_variance_bound(-0.1, 0.0, 0.0, 0.0)


class TestProp1:
    def _inputs(self, **overrides):
        base = dict(
            empirical_cdnv=0.1,
            eps1_i=0.01,
            eps1_j=0.01,
            eps2_i=0.01,
            eps2_j=0.01,
            mean_norm_i=1.0,
            mean_norm_j=1.0,
            pop_mean_dist=1.0,
            emp_mean_dist=1.0,
        )
        base.update(overrides)
        return Prop1Inputs(**base)

    def test_zero_eps_returns_empirical(self):
        inputs = self._inputs(eps1_i=0.0, eps1_j=0.0, eps2_i=0.0, eps2_j=0.0)
        assert prop1_bound(inputs) == 0.1

    def test_hand_arithmetic(self):
        assert prop1_bound(self._inputs()) == pytest.approx(0.135356, rel=1e-5)

    def test_doubling_distances_decreases_bound(self):
        base = prop1_bound(self._inputs())
        doubled = prop1_bound(self._inputs(pop_mean_dist=2.0, emp_mean_dist=2.0))
        assert doubled < base

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            self._inputs(pop_mean_dist=0.0)


class TestProp2:
    def test_vanishing_extra_terms(self):
        inputs = Prop2Inputs(
            avg_source_cdnv=0.3,
            delta_fstar=1.0,
            sup_var=0.0,
            sup_feat_norm=1.0,
            l=4,
            rademacher=0.0,
            delta=0.5,
        )
        assert prop2_bound(inputs) == 0.3

    def test_hand_arithmetic(self):
        inputs = Prop2Inputs(
            avg_source_cdnv=0.0,
            delta_fstar=1.0,
            sup_var=1.0,
            sup_feat_norm=1.0,
            l=2,
            rademacher=0.0,
            delta=math.exp(-1.0),
        )
        assert prop2_bound(inputs) == pytest.approx(7.071068, rel=1e-5)

    def test_non_increasing_in_l(self):
        values = [
            prop2_bound(
                Prop2Inputs(
                    avg_source_cdnv=0.01,
                    delta_fstar=0.5,
                    sup_var=2.0,
                    sup_feat_norm=3.0,
                    l=l,
                    rademacher=1.0,
                    delta=0.1,
                )
            )
            for l in (2, 4, 8, 16)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="l must"):
            Prop2Inputs(0.0, 1.0, 0.0, 0.0, 1, 0.0, 0.5)
        with pytest.raises(ValueError, match="delta must"):
            Prop2Inputs(0.0, 1.0, 0.0, 0.0, 2, 0.0, 1.5)
        with pytest.raises(ValueError, match="delta_fstar"):
            Prop2Inputs(0.0, 0.0, 0.0, 0.0, 2, 0.0, 0.5)


class TestProp3:
    def _inputs(self, **overrides):
        base = dict(
            p=1, q=1, l=1, m_c=1, sup_x_norm=1.0, spectral_complexity=0.0, M=1.0, delta=0.25
        )
        base.update(overrides)
        return ReluBoundInputs(**base)

    def test_eps1_hand_arithmetic(self):
        assert prop3_eps1(self._inputs()) == pytest.approx(6.177410, rel=1e-5)

    def test_eps1_scales_inverse_sqrt_samples(self):
        base = prop3_eps1(self._inputs())
        assert prop3_eps1(self._inputs(m_c=4)) == pytest.approx(base / 2.0, rel=1e-12)

    def test_eps2_hand_arithmetic(self):
        assert prop3_eps2(self._inputs()) == pytest.approx(13.532229, rel=1e-5)

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="delta"):
            self._inputs(delta=0.0)


class TestProp4:
    def test_hand_arithmetic(self):
        assert prop4_rademacher_bound(self._inputs()) == 12.5

    def _inputs(self, **overrides):
        base = dict(
            p=1, q=1, l=1, m_c=1, sup_x_norm=1.0, spectral_complexity=0.0, M=1.0, delta=0.5
        )
        base.update(overrides)
        return ReluBoundInputs(**base)

    def test_sqrt_l_scaling(self):
        base = prop4_rademacher_bound(self._inputs())
        assert prop4_rademacher_bound(self._inputs(l=4)) == pytest.approx(2 * base, rel=1e-12)

    def test_zero_complexity_cap(self):
        assert prop4_rademacher_bound(self._inputs(M=0.0)) == 0.0


class TestProp5General:
    def test_non_spherical_hand_arithmetic(self):
        assert prop5_general_bound(2, 5, 0.01) == pytest.approx(0.192, rel=1e-12)

    def test_spherical_hand_arithmetic(self):
        assert prop5_general_bound(2, 5, 0.01, spherical_p=16) == pytest.approx(0.042, rel=1e-12)

    def test_zero_collapse_value(self):
        assert prop5_general_bound(3, 7, 0.0) == 0.0

    def test_linear_in_inputs(self):
        base = prop5_general_bound(2, 5, 0.01)
        assert prop5_general_bound(2, 5, 0.03) == pytest.approx(3 * base, rel=1e-12)
        assert prop5_general_bound(5, 5, 0.01) == pytest.approx(4 * base, rel=1e-12)

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            prop5_general_bound(1, 5, 0.01)


class TestProp5Gaussian:
    def test_hand_arithmetic(self):
        assert prop5_gaussian_bound(2, 2, 0.01) == pytest.approx(0.115827, rel=1e-5)

    def test_precondition_names_threshold(self):
        with pytest.raises(ValueError, match="1/16"):
            prop5_gaussian_bound(2, 2, 0.1)

    def test_k_factor(self):
        assert prop5_gaussian_bound(3, 2, 0.01) == pytest.approx(
            2 * prop5_gaussian_bound(2, 2, 0.01), rel=1e-12
        )

    def test_decreasing_in_p_for_small_v(self):
        # strict decrease holds iff 1/(32v) > -log(5v)/2, i.e. v below
        # ~0.0371; at larger v (e.g. 0.05) the bound grows with p
        for v in (0.01, 0.03):
            values = [prop5_gaussian_bound(2, p, v) for p in range(2, 65, 2)]
            assert all(b < a for a, b in zip(values, values[1:]))
        rising = [prop5_gaussian_bound(2, p, 0.05) for p in (2, 4, 8)]
        assert rising[0] < rising[1] < rising[2]

    def test_underflow_is_zero_not_error(self):
        assert prop5_gaussian_bound(2, 4096, 0.001) == 0.0


class TestProp5Relaxed:
    def test_hand_arithmetic(self):
        assert prop5_relaxed_bound(2, 4, 16, 0.25, 0.5) == pytest.approx(0.148336, rel=1e-5)

    def test_vanishes_with_collapse(self):
        assert prop5_relaxed_bound(2, 4, 16, 1e-12, 0.5) <= 1e-30

    def test_precondition_names_threshold(self):
        with pytest.raises(ValueError, match=r"gamma\^2 \* n_c / 4"):
            prop5_relaxed_bound(2, 4, 1, 0.25, 0.5)  # threshold 0.0625

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            prop5_relaxed_bound(2, 4, 16, 0.25, 1.0)


class TestLemma2Bound:
    def test_hand_arithmetic_n2_p2(self):
        assert lemma2_lower_bound(2, 2) == pytest.approx(0.376127, rel=1e-5)

    def test_hand_arithmetic_n3_p2(self):
        assert lemma2_lower_bound(3, 2) == pytest.approx(0.217157, rel=1e-5)

    def test_n2_p1_is_quarter(self):
        assert lemma2_lower_bound(2, 1) == pytest.approx(0.25, rel=1e-12)

    def test_positive_over_large_grid(self):
        for n in (2, 10, 100, 1000):
            for p in (1, 2, 32, 128, 512):
                assert lemma2_lower_bound(n, p) > 0.0

    def test_n_validation(self):
        with pytest.raises(ValueError, match="n"):
            lemma2_lower_bound(1, 2)


class TestGaussianClassModel:
    def test_rejects_coincident_means(self):
        with pytest.raises(ValueError, match="degenerate"):
            GaussianClassModel(
                means=np.zeros((2, 3)), total_variances=np.array([1.0, 1.0])
            )

    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianClassModel(
                means=np.array([[0.0], [1.0]]), total_variances=np.array([1.0, 0.0])
            )

    def test_v_max_over_ordered_pairs(self):
        model = GaussianClassModel(
            means=np.array([[0.0], [1.0]]), total_variances=np.array([0.1, 0.01])
        )
        assert model.v_max() == pytest.approx(0.1, rel=1e-12)
        assert model.avg_cdnv() == pytest.approx((0.1 + 0.01) / 2.0, rel=1e-12)


class TestProp5Menu:
    def test_all_four_candidates_for_etf_model(self):
        menu = prop5_bound_menu(_etf_model(2, 16, 0.02), n_c=5)
        assert set(menu) == {
            "prop5-general",
            "prop5-spherical",
            "prop5-gaussian",
            "prop5-relaxed",
        }
        assert menu["prop5-general"] == pytest.approx(16 * 1.2 * 0.02, rel=1e-9)
        assert menu["prop5-spherical"] == pytest.approx(0.084, rel=1e-9)

    def test_gaussian_dropped_for_unequal_variances(self):
        model = GaussianClassModel(
            means=simplex_etf_means(3, 4), total_variances=np.array([0.01, 0.01, 0.05])
        )
        menu = prop5_bound_menu(model, n_c=2)
        assert "prop5-gaussian" not in menu and "prop5-relaxed" not in menu
        assert "prop5-spherical" in menu

    def test_gaussian_dropped_for_non_simplex_means(self):
        means = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        model = GaussianClassModel(means=means, total_variances=np.full(3, 0.01))
        menu = prop5_bound_menu(model, n_c=2)
        assert "prop5-gaussian" not in menu

    def test_non_spherical_model_keeps_only_general(self):
        model = GaussianClassModel(
            means=simplex_etf_means(3, 4), total_variances=np.full(3, 0.01), spherical=False
        )
        assert set(prop5_bound_menu(model, n_c=2)) == {"prop5-general"}


class TestVerifyProp5:
    def test_collapse_limit_satisfied_with_zero_error(self):
        model = _etf_model(3, 8, 1e-10)
        report = verify_prop5_mc(model, n_c=2, trials=500, seed=1)
        assert report.empirical_estimate == 0.0
        assert report.satisfied

    def test_spec_reference_point(self):
        model = _etf_model(2, 16, 0.02)
        report = verify_prop5_mc(model, n_c=5, trials=20000, seed=9)
        assert report.satisfied
        spherical = 16 * (1 / 16 + 1 / 5) * 0.02
        assert report.empirical_estimate <= spherical + 3 * report.std_error
        assert report.params["candidates"]["prop5-spherical"] == pytest.approx(
            spherical, rel=1e-9
        )

    def test_same_seed_identical_report(self):
        model = _etf_model(3, 4, 0.05)
        r1 = verify_prop5_mc(model, n_c=1, trials=300, seed=4)
        r2 = verify_prop5_mc(model, n_c=1, trials=300, seed=4)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_noisy_regime_stays_within_general_bound(self):
        # avg collapse value 0.5: general bound 16*(1+1)*0.5 = 16 >> 1,
        # empirical error is large but trivially bounded
        model = _etf_model(2, 2, 0.5)
        report = verify_prop5_mc(model, n_c=1, trials=2000, seed=5)
        assert report.empirical_estimate > 0.05
        assert report.satisfied

    def test_trial_validation(self):
        with pytest.raises(ValueError, match="trials"):
            verify_prop5_mc(_etf_model(2, 2, 0.01), n_c=1, trials=50, seed=0)

    def test_report_serializes(self):
        report = verify_prop5_mc(_etf_model(2, 4, 0.01), n_c=2, trials=200, seed=0)
        doc = report.to_json_dict()
        json.dumps(doc)
        assert doc["trials"] == 200
        assert isinstance(doc["satisfied"], bool)


class TestVerifyLemma2:
    def test_n2_p2_reference_point(self):
        report = verify_lemma2_mc(2, 2, trials=20000, seed=3)
        assert report.satisfied
        assert report.empirical_estimate == pytest.approx(0.5214, abs=0.02)
        assert report.bound_value == pytest.approx(0.376127, rel=1e-5)

    def test_n2_p1_matches_analytic_third(self):
        report = verify_lemma2_mc(2, 1, trials=50000, seed=3)
        assert abs(report.empirical_estimate - 1.0 / 3.0) <= 3 * report.std_error
        assert report.bound_value == pytest.approx(0.25, rel=1e-12)
        assert report.satisfied

    def test_same_seed_identical_report(self):
        r1 = verify_lemma2_mc(5, 8, trials=500, seed=12)
        r2 = verify_lemma2_mc(5, 8, trials=500, seed=12)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            verify_lemma2_mc(1, 2, trials=500, seed=0)
        with pytest.raises(ValueError, match="trials"):
            verify_lemma2_mc(2, 2, trials=10, seed=0)


def _evaluator_params(name):
    bound = _BOUNDS[name]
    source = bound.inputs or getattr(bounds_mod, bound.evaluator)
    return list(inspect.signature(source).parameters.values())


@pytest.mark.parametrize(
    "name,nan_param",
    [
        (name, param.name)
        for name in _BOUNDS
        for param in _evaluator_params(name)
        if param.annotation == "float"
    ],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_nan_in_any_float_argument_raises(name, nan_param, data):
    # every other argument is arbitrary: NaN alone must make the call fail
    values = {}
    for param in _evaluator_params(name):
        if param.name == nan_param:
            values[param.name] = math.nan
        elif param.annotation == "float":
            values[param.name] = data.draw(st.floats(allow_nan=False), label=param.name)
        else:
            values[param.name] = data.draw(st.integers(-2, 100), label=param.name)
    bound = _BOUNDS[name]
    evaluator = getattr(bounds_mod, bound.evaluator)
    with pytest.raises(ValueError):
        evaluator(bound.inputs(**values)) if bound.inputs else evaluator(**values)
