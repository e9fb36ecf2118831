"""Every public integer parameter takes integral numbers and nothing else."""

import math

import numpy as np
import pytest

from nckit.bounds import (
    GaussianClassModel,
    Prop2Inputs,
    ReluBoundInputs,
    lemma2_lower_bound,
    prop2_bound,
    prop3_eps1,
    prop5_bound_menu,
    prop5_gaussian_bound,
    prop5_general_bound,
    prop5_relaxed_bound,
    verify_lemma2_mc,
    verify_prop5_mc,
)
from nckit.embeddings import LabeledEmbeddings, partition_by_class
from nckit.fewshot import EpisodeConfig, sample_episode
from nckit.synth import MixtureSpec, collapsed_set, simplex_etf_means, uniform_cube_means

_MODEL = GaussianClassModel(simplex_etf_means(3, 4, scale=0.5), np.full(3, 0.01))
_RELU = dict(p=3, q=3, l=3, m_c=3, sup_x_norm=1.0, spectral_complexity=2.0, M=1.0, delta=0.05)
_EPISODE = dict(k=3, n_shot=3, n_query=3, episodes=3, seed=3)
_POOL = partition_by_class(collapsed_set(simplex_etf_means(4, 4), 8))

# name: (call with the integer under test, a value it accepts)
_CASES = {
    "prop2_bound-l": (lambda v: prop2_bound(Prop2Inputs(0.1, 2.0, 0.5, 4.0, v, 0.3, 0.05)), 3),
    **{
        f"ReluBoundInputs-{name}": (
            lambda v, name=name: prop3_eps1(ReluBoundInputs(**{**_RELU, name: v})),
            3,
        )
        for name in ("p", "q", "l", "m_c")
    },
    "prop5_general_bound-k": (lambda v: prop5_general_bound(v, 5, 0.1), 3),
    "prop5_general_bound-n_c": (lambda v: prop5_general_bound(5, v, 0.1), 3),
    "prop5_general_bound-spherical_p": (lambda v: prop5_general_bound(5, 5, 0.1, spherical_p=v), 3),
    "prop5_gaussian_bound-k": (lambda v: prop5_gaussian_bound(v, 64, 0.02), 3),
    "prop5_gaussian_bound-p": (lambda v: prop5_gaussian_bound(5, v, 0.02), 3),
    "prop5_relaxed_bound-k": (lambda v: prop5_relaxed_bound(v, 64, 5, 0.02, 0.5), 3),
    "prop5_relaxed_bound-p": (lambda v: prop5_relaxed_bound(5, v, 5, 0.02, 0.5), 3),
    "prop5_relaxed_bound-n_c": (lambda v: prop5_relaxed_bound(5, 64, v, 0.02, 0.5), 3),
    "lemma2_lower_bound-n": (lambda v: lemma2_lower_bound(v, 4), 3),
    "lemma2_lower_bound-p": (lambda v: lemma2_lower_bound(4, v), 3),
    "prop5_bound_menu-n_c": (lambda v: prop5_bound_menu(_MODEL, v), 3),
    "verify_prop5_mc-n_c": (lambda v: verify_prop5_mc(_MODEL, v, 100, 0), 3),
    "verify_prop5_mc-trials": (lambda v: verify_prop5_mc(_MODEL, 2, v, 0), 100),
    "verify_prop5_mc-seed": (lambda v: verify_prop5_mc(_MODEL, 2, 100, v), 3),
    "verify_lemma2_mc-n": (lambda v: verify_lemma2_mc(v, 2, 100, 0), 3),
    "verify_lemma2_mc-p": (lambda v: verify_lemma2_mc(3, v, 100, 0), 3),
    "verify_lemma2_mc-trials": (lambda v: verify_lemma2_mc(3, 2, v, 0), 100),
    "verify_lemma2_mc-seed": (lambda v: verify_lemma2_mc(3, 2, 100, v), 3),
    "simplex_etf_means-k": (lambda v: simplex_etf_means(v, 4), 3),
    "simplex_etf_means-p": (lambda v: simplex_etf_means(3, v), 3),
    "uniform_cube_means-k": (lambda v: uniform_cube_means(v, 2, 0), 3),
    "uniform_cube_means-p": (lambda v: uniform_cube_means(2, v, 0), 3),
    "uniform_cube_means-seed": (lambda v: uniform_cube_means(2, 2, v), 3),
    "collapsed_set-samples_per_class": (lambda v: collapsed_set(np.eye(2), v), 3),
    "MixtureSpec-samples_per_class": (lambda v: MixtureSpec(np.eye(2), [1.0, 1.0], v, 0), 3),
    "MixtureSpec-seed": (lambda v: MixtureSpec(np.eye(2), [1.0, 1.0], 2, v), 3),
    **{
        f"EpisodeConfig-{name}": (lambda v, name=name: EpisodeConfig(**{**_EPISODE, name: v}), 3)
        for name in _EPISODE
    },
    "sample_episode-episode_index": (
        lambda v: sample_episode(_POOL, EpisodeConfig(2, 2, 2, 4, 0), v),
        3,
    ),
}


def _plain(result):
    """A result as nested builtins, so that equal results compare equal."""
    if hasattr(result, "to_json_dict"):
        return result.to_json_dict()
    if isinstance(result, LabeledEmbeddings):
        return result.labels.tolist(), result.features.tolist()
    if isinstance(result, np.ndarray):
        return result.tolist()
    if hasattr(result, "__dataclass_fields__"):
        return {name: _plain(getattr(result, name)) for name in result.__dataclass_fields__}
    return result


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("kind", ["fraction", "bool", "string", "nan"])
def test_non_integers_are_rejected(name, kind):
    call, good = _CASES[name]
    bad = {"fraction": good + 0.5, "bool": True, "string": str(good), "nan": math.nan}[kind]
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_integral_numbers_give_the_same_result(name):
    call, good = _CASES[name]
    want = _plain(call(good))
    assert _plain(call(np.int64(good))) == want
    assert _plain(call(float(good))) == want
