import numpy as np
import pytest

from nckit import fewshot
from nckit.embeddings import ClassPartition, LabeledEmbeddings, partition_by_class
from nckit.fewshot import (
    Episode,
    EpisodeConfig,
    evaluate,
    ncm_fit,
    ncm_predict,
    ridge_fit,
    ridge_predict,
    ridge_solve,
    sample_episode,
)
from nckit.metrics import class_stats
from nckit.synth import collapsed_set, gaussian_mixture, simplex_etf_means, MixtureSpec

from oracles import naive_nearest_mean


def _random_partition(rng, n_classes=6, points=30, dim=4):
    groups = {
        int(lab): rng.normal(size=(points, dim)) + rng.normal(scale=4.0, size=dim)
        for lab in rng.choice(50, size=n_classes, replace=False)
    }
    return ClassPartition(dim=dim, groups=groups)


class TestSampling:
    def test_same_seed_same_episode(self):
        rng = np.random.default_rng(1)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=3, n_shot=2, n_query=4, episodes=1, seed=99)
        ep1 = sample_episode(part, cfg, 7)
        ep2 = sample_episode(part, cfg, 7)
        assert ep1.class_ids == ep2.class_ids
        np.testing.assert_array_equal(ep1.support, ep2.support)
        np.testing.assert_array_equal(ep1.query, ep2.query)

    def test_different_index_different_episode(self):
        rng = np.random.default_rng(2)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=3, n_shot=2, n_query=4, episodes=1, seed=99)
        ep1 = sample_episode(part, cfg, 0)
        ep2 = sample_episode(part, cfg, 1)
        assert ep1.class_ids != ep2.class_ids or not np.array_equal(ep1.support, ep2.support)

    def test_exactly_k_classes_uses_all(self):
        rng = np.random.default_rng(3)
        part = _random_partition(rng, n_classes=4)
        cfg = EpisodeConfig(k=4, n_shot=3, n_query=3, episodes=1, seed=0)
        ep = sample_episode(part, cfg, 0)
        assert ep.class_ids == part.class_ids

    def test_support_query_disjoint_within_class(self):
        rng = np.random.default_rng(4)
        part = _random_partition(rng, points=12)
        cfg = EpisodeConfig(k=3, n_shot=4, n_query=5, episodes=1, seed=5)
        ep = sample_episode(part, cfg, 0)
        for c in range(3):
            support_rows = {tuple(row) for row in ep.support[c]}
            query_rows = {tuple(row) for row in ep.query[c]}
            assert not support_rows & query_rows

    def test_class_selection_is_uniform(self):
        rng = np.random.default_rng(6)
        part = _random_partition(rng, n_classes=10, points=8)
        cfg = EpisodeConfig(k=5, n_shot=2, n_query=2, episodes=1000, seed=123)
        counts = {lab: 0 for lab in part.class_ids}
        for i in range(cfg.episodes):
            for lab in sample_episode(part, cfg, i).class_ids:
                counts[lab] += 1
        sd = np.sqrt(1000 * 0.5 * 0.5)
        for lab, count in counts.items():
            assert abs(count - 500) <= 5 * sd, f"class {lab}: {count}"

    def test_too_few_eligible_classes(self):
        rng = np.random.default_rng(7)
        part = _random_partition(rng, n_classes=3, points=4)
        cfg = EpisodeConfig(k=3, n_shot=3, n_query=3, episodes=1, seed=0)
        with pytest.raises(ValueError, match="classes"):
            sample_episode(part, cfg, 0)


class TestRidge:
    def test_identity_hand_solve(self):
        weights = ridge_solve(np.eye(2), np.eye(2), lam=1.0)
        np.testing.assert_allclose(weights, 0.5 * np.eye(2), atol=1e-15, rtol=0)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            part = _random_partition(rng)
            cfg = EpisodeConfig(k=3, n_shot=4, n_query=2, episodes=1, seed=0)
            ep = sample_episode(part, cfg, int(rng.integers(100)))
            model = ridge_fit(ep, alpha=1.0)
            features = ep.support.reshape(-1, part.dim)
            onehot = np.zeros((features.shape[0], 3))
            for c in range(3):
                onehot[c * 4 : (c + 1) * 4, c] = 1.0
            residual = (features.T @ features + model.lam * np.eye(part.dim)) @ model.weights
            residual -= features.T @ onehot
            assert np.abs(residual).max() <= 1e-8

    def test_one_solve_and_no_cholesky(self, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
        monkeypatch.setattr(np.linalg, "cholesky", None)
        rng = np.random.default_rng(9)
        cfg = EpisodeConfig(k=3, n_shot=2, n_query=1, episodes=1, seed=0)
        ep = sample_episode(_random_partition(rng, dim=7), cfg, 0)
        ridge_fit(ep, alpha=1.0)
        assert solves == [(7, 7)]

    def test_lambda_uses_configured_exponent(self):
        rng = np.random.default_rng(9)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=4, n_shot=4, n_query=2, episodes=1, seed=0)
        ep = sample_episode(part, cfg, 0)
        up = ridge_fit(ep, alpha=2.0, lambda_exponent=0.5)
        down = ridge_fit(ep, alpha=2.0, lambda_exponent=-0.5)
        assert up.lam == pytest.approx(2.0 * 4.0)  # n = 16
        assert down.lam == pytest.approx(2.0 / 4.0)

    def test_rejects_other_exponents(self):
        rng = np.random.default_rng(10)
        ep = sample_episode(
            _random_partition(rng), EpisodeConfig(k=2, n_shot=2, n_query=2, episodes=1, seed=0), 0
        )
        with pytest.raises(ValueError, match="lambda_exponent"):
            ridge_fit(ep, alpha=1.0, lambda_exponent=1.0)
        with pytest.raises(ValueError, match="alpha"):
            ridge_fit(ep, alpha=0.0)

    def test_huge_lambda_asymptote(self):
        rng = np.random.default_rng(11)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=3, n_shot=3, n_query=2, episodes=1, seed=0)
        ep = sample_episode(part, cfg, 0)
        model = ridge_fit(ep, alpha=1e9)
        features = ep.support.reshape(-1, part.dim)
        onehot = np.zeros((9, 3))
        for c in range(3):
            onehot[c * 3 : (c + 1) * 3, c] = 1.0
        np.testing.assert_allclose(
            model.weights, features.T @ onehot / model.lam, rtol=0.01, atol=1e-12
        )

    def test_small_lambda_matches_least_squares(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(30, 5))  # full column rank a.s.
        targets = rng.normal(size=(30, 2))
        weights = ridge_solve(features, targets, lam=1e-10)
        lstsq = np.linalg.lstsq(features, targets, rcond=None)[0]
        np.testing.assert_allclose(weights, lstsq, rtol=1e-5)

    def test_predict_identity_weights(self):
        ep = Episode(class_ids=(0, 1), support=np.eye(2).reshape(2, 1, 2), query=np.zeros((2, 1, 2)))
        model = ridge_fit(ep, alpha=1.0 / np.sqrt(2.0))  # lam = 1
        assert ridge_predict(model, np.array([1.0, 0.0])) == 0
        assert ridge_predict(model, np.array([0.0, 1.0])) == 1  # scores (0, 0.5)

    def test_predict_tie_breaks_to_smaller_id(self):
        ep = Episode(class_ids=(2, 7), support=np.eye(2).reshape(2, 1, 2), query=np.zeros((2, 1, 2)))
        model = ridge_fit(ep, alpha=1.0)
        assert ridge_predict(model, np.array([0.5, 0.5])) == 2

    def test_predict_dimension_mismatch(self):
        ep = Episode(class_ids=(0, 1), support=np.eye(2).reshape(2, 1, 2), query=np.zeros((2, 1, 2)))
        model = ridge_fit(ep, alpha=1.0)
        with pytest.raises(ValueError, match="length"):
            ridge_predict(model, np.array([1.0, 0.0, 0.0]))


class TestNcm:
    def test_one_shot_means_are_support_points(self):
        support = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        ep = Episode(class_ids=(0, 1), support=support, query=support)
        model = ncm_fit(ep)
        np.testing.assert_array_equal(model.means, [[1.0, 2.0], [3.0, 4.0]])

    def test_mean_of_two_points(self):
        ep = Episode(
            class_ids=(0,),
            support=np.array([[[0.0, 0.0], [2.0, 0.0]]]),
            query=np.zeros((1, 1, 2)),
        )
        np.testing.assert_array_equal(ncm_fit(ep).means, [[1.0, 0.0]])

    def test_means_match_class_stats(self):
        rng = np.random.default_rng(13)
        support = rng.normal(size=(3, 6, 4))
        ep = Episode(class_ids=(0, 1, 2), support=support, query=support)
        model = ncm_fit(ep)
        for c in range(3):
            np.testing.assert_allclose(model.means[c], class_stats(support[c]).mean, atol=1e-15)

    def test_predict_nearest(self):
        model = ncm_fit(
            Episode(
                class_ids=(0, 1),
                support=np.array([[[1.0, 0.0]], [[-1.0, 0.0]]]),
                query=np.zeros((2, 1, 2)),
            )
        )
        assert ncm_predict(model, np.array([0.9, 0.0])) == 0

    def test_predict_tie_smaller_id(self):
        model = ncm_fit(
            Episode(
                class_ids=(3, 8),
                support=np.array([[[1.0, 0.0]], [[-1.0, 0.0]]]),
                query=np.zeros((2, 1, 2)),
            )
        )
        assert ncm_predict(model, np.array([0.0, 0.0])) == 3

    def test_predict_matches_naive_loop(self):
        rng = np.random.default_rng(14)
        support = rng.normal(size=(3, 1, 5))
        model = ncm_fit(Episode(class_ids=(2, 4, 9), support=support, query=support))
        for _ in range(50):
            x = rng.normal(scale=2.0, size=5)
            expected = naive_nearest_mean(model.means, model.class_ids, x)
            assert ncm_predict(model, x) == expected

    def test_translation_and_scaling_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            means = rng.normal(size=(4, 3))
            x = rng.normal(size=3)
            c = float(rng.uniform(0.1, 10.0))
            t = rng.normal(scale=20.0, size=3)
            base = ncm_fit(
                Episode(class_ids=(0, 1, 2, 3), support=means[:, None, :], query=means[:, None, :])
            )
            moved = ncm_fit(
                Episode(
                    class_ids=(0, 1, 2, 3),
                    support=(c * means + t)[:, None, :],
                    query=(c * means + t)[:, None, :],
                )
            )
            assert ncm_predict(base, x) == ncm_predict(moved, c * x + t)


class TestEvaluate:
    def test_collapsed_partition_ncm_is_perfect(self):
        means = simplex_etf_means(4, 6)
        part = partition_by_class(collapsed_set(means, samples_per_class=4))
        cfg = EpisodeConfig(k=4, n_shot=1, n_query=2, episodes=20, seed=3)
        report = evaluate(part, cfg, head="ncm")
        assert report.mean_accuracy == 1.0
        assert report.per_episode == (1.0,) * 20

    def test_same_seed_identical_report(self):
        rng = np.random.default_rng(16)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=3, n_shot=2, n_query=5, episodes=25, seed=42)
        r1 = evaluate(part, cfg, head="ridge", alpha=1.0)
        r2 = evaluate(part, cfg, head="ridge", alpha=1.0)
        assert r1.per_episode == r2.per_episode
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_out_of_order_episodes_match_report(self):
        # schedule independence: accuracies recomputed in shuffled order agree
        rng = np.random.default_rng(17)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=3, n_shot=2, n_query=5, episodes=12, seed=11)
        report = evaluate(part, cfg, head="ncm")
        order = rng.permutation(cfg.episodes)
        for i in order:
            ep = sample_episode(part, cfg, int(i))
            model = ncm_fit(ep)
            correct = 0
            for c in range(cfg.k):
                for q in ep.query[c]:
                    correct += ncm_predict(model, q) == ep.class_ids[c]
            assert report.per_episode[i] == correct / (cfg.k * cfg.n_query)

    def test_ncm_error_respects_spherical_bound(self):
        # two spherical Gaussians at unit distance with pairwise collapse
        # value 0.02: 5-shot nearest-mean error is at most
        # 16 * (1/16 + 1/5) * 0.02 = 0.084 up to Monte Carlo noise
        means = np.zeros((2, 16))
        means[1, 0] = 1.0
        spec = MixtureSpec(
            class_means=means,
            total_variances=np.full(2, 0.02),
            samples_per_class=2000,
            seed=77,
        )
        part = partition_by_class(gaussian_mixture(spec))
        cfg = EpisodeConfig(k=2, n_shot=5, n_query=50, episodes=100, seed=7)
        report = evaluate(part, cfg, head="ncm")
        errors = 1.0 - np.asarray(report.per_episode)
        se = errors.std(ddof=1) / np.sqrt(cfg.episodes)
        assert errors.mean() <= 0.084 + 3 * se

    def test_label_permutation_leaves_accuracy_unchanged(self):
        rng = np.random.default_rng(18)
        labels = np.repeat([0, 1, 2, 3, 4], 20)
        features = rng.normal(size=(100, 3)) + labels[:, None].astype(float)
        emb = LabeledEmbeddings(labels=labels, features=features)
        perm = {0: 41, 1: 3, 2: 27, 3: 0, 4: 11}
        relabeled = LabeledEmbeddings(
            labels=np.array([perm[int(l)] for l in labels]), features=features
        )
        cfg = EpisodeConfig(k=3, n_shot=4, n_query=6, episodes=30, seed=5)
        for head in ("ridge", "ncm"):
            base = evaluate(partition_by_class(emb), cfg, head=head)
            moved = evaluate(partition_by_class(relabeled), cfg, head=head)
            assert base.per_episode == moved.per_episode
            assert base.mean_accuracy == moved.mean_accuracy

    def test_ci_halfwidth_definition(self):
        rng = np.random.default_rng(19)
        part = _random_partition(rng, points=10)
        cfg = EpisodeConfig(k=3, n_shot=2, n_query=3, episodes=15, seed=2)
        report = evaluate(part, cfg, head="ncm")
        per = np.asarray(report.per_episode)
        assert report.mean_accuracy == pytest.approx(per.mean(), abs=0)
        assert report.ci95_halfwidth == pytest.approx(1.96 * per.std(ddof=1) / np.sqrt(15))

    def test_unknown_head_rejected(self):
        rng = np.random.default_rng(20)
        part = _random_partition(rng)
        cfg = EpisodeConfig(k=2, n_shot=1, n_query=1, episodes=1, seed=0)
        with pytest.raises(ValueError, match="head"):
            evaluate(part, cfg, head="logistic")


def _oracle_per_episode(part, cfg, head, alpha=1.0, lambda_exponent=0.5, indices=None):
    """Accuracies from the single-episode API: sample_episode, then the
    primal ridge_fit argmax or an explicit nearest support mean."""
    accuracies = []
    truth = np.repeat(np.arange(cfg.k), cfg.n_query)
    for i in range(cfg.episodes) if indices is None else indices:
        ep = sample_episode(part, cfg, i)
        queries = ep.query.reshape(-1, part.dim)
        if head == "ridge":
            model = ridge_fit(ep, alpha=alpha, lambda_exponent=lambda_exponent)
            predicted = np.argmax(queries @ model.weights, axis=1)
        else:
            means = ep.support.mean(axis=1)
            predicted = np.argmin(np.square(queries[:, None] - means[None]).sum(axis=2), axis=1)
        accuracies.append(float(np.mean(predicted == truth)))
    return tuple(accuracies)


def _uneven_partition(seed, dim):
    """Unequal class sizes, interleaved appearance, three classes too small."""
    rng = np.random.default_rng(seed)
    sizes = [9, 30, 4, 17, 2, 12, 25, 8, 40]
    labels = rng.permutation(np.repeat(rng.choice(90, size=len(sizes), replace=False), sizes))
    centers = {int(lab): rng.normal(scale=0.5, size=dim) for lab in np.unique(labels)}
    features = np.stack([centers[int(lab)] for lab in labels]) + rng.normal(size=(len(labels), dim))
    return partition_by_class(LabeledEmbeddings(labels=labels, features=features))


def _dict_partition(seed, dim):
    """Built by hand: unequal blocks, appearance order unrelated to labels."""
    rng = np.random.default_rng(seed)
    groups = {
        int(lab): rng.normal(size=(int(m), dim)) + rng.normal(scale=0.5, size=dim)
        for lab, m in zip((31, 4, 17, 58, 9, 23), (14, 9, 30, 3, 11, 21))
    }
    return ClassPartition(dim=dim, groups=groups, appearance=(17, 58, 4, 23, 31, 9))


class TestBatchedEvaluate:
    # support n = k * n_shot = 9; dims above, at and below it
    CFG = dict(k=3, n_shot=3, n_query=4, seed=21)

    @pytest.mark.parametrize("dim", [20, 9, 4])
    @pytest.mark.parametrize("build", [_uneven_partition, _dict_partition])
    @pytest.mark.parametrize("episodes", [1, 4])
    @pytest.mark.parametrize("head,lambda_exponent", [("ridge", 0.5), ("ridge", -0.5), ("ncm", 0.5)])
    def test_matches_single_episode_oracle(
        self, monkeypatch, dim, build, episodes, head, lambda_exponent
    ):
        cfg = EpisodeConfig(episodes=episodes, **self.CFG)
        need = cfg.n_shot + cfg.n_query
        # chunks of 3 episodes, so 4 episodes take one full and one partial chunk
        monkeypatch.setattr(fewshot, "_CHUNK_BYTES", 3 * cfg.k * need * dim * 8)
        part = build(11, dim)
        report = evaluate(part, cfg, head=head, alpha=0.7, lambda_exponent=lambda_exponent)
        assert report.per_episode == _oracle_per_episode(part, cfg, head, 0.7, lambda_exponent)

    @pytest.mark.parametrize("head", ["ridge", "ncm"])
    def test_collapsed_set_matches_oracle(self, head):
        part = partition_by_class(collapsed_set(simplex_etf_means(5, 8), samples_per_class=6))
        cfg = EpisodeConfig(k=4, n_shot=1, n_query=3, episodes=15, seed=4)
        report = evaluate(part, cfg, head=head)
        assert report.per_episode == _oracle_per_episode(part, cfg, head) == (1.0,) * 15

    def test_default_chunk_boundary(self):
        part = _uneven_partition(5, 64)
        chunk = fewshot._CHUNK_BYTES // (2 * 4 * part.dim * 8)  # k 2, 4 rows per class
        cfg = EpisodeConfig(k=2, n_shot=2, n_query=2, episodes=chunk + 1, seed=8)
        edges = [0, chunk - 1, chunk]
        for head in ("ridge", "ncm"):
            report = evaluate(part, cfg, head=head)
            want = _oracle_per_episode(part, cfg, head, indices=edges)
            assert tuple(report.per_episode[i] for i in edges) == want

    def test_dual_solves_only_n_by_n_once_per_chunk(self, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
        monkeypatch.setattr(np.linalg, "cholesky", None)
        dim, cfg = 30, EpisodeConfig(k=3, n_shot=2, n_query=2, episodes=11, seed=3)
        monkeypatch.setattr(fewshot, "_CHUNK_BYTES", 4 * cfg.k * 4 * dim * 8)
        evaluate(_dict_partition(6, dim), cfg, head="ridge")
        assert solves == [(4, 6, 6), (4, 6, 6), (3, 6, 6)]

    def test_primal_when_support_outnumbers_dimension(self, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
        cfg = EpisodeConfig(k=3, n_shot=3, n_query=2, episodes=5, seed=3)
        evaluate(_dict_partition(7, 4), cfg, head="ridge")
        assert solves == [(4, 4)] * 5


class TestStrengthChecks:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_evaluate_rejects_alpha_before_sampling(self, alpha):
        # too few eligible classes: sampling would raise a different error
        part = _random_partition(np.random.default_rng(30), n_classes=2)
        cfg = EpisodeConfig(k=3, n_shot=1, n_query=1, episodes=2, seed=0)
        with pytest.raises(ValueError, match="alpha"):
            evaluate(part, cfg, head="ridge", alpha=alpha)

    @pytest.mark.parametrize("exponent", [float("nan"), 1.0, 0.0])
    def test_evaluate_rejects_exponent_before_sampling(self, exponent):
        part = _random_partition(np.random.default_rng(31), n_classes=2)
        cfg = EpisodeConfig(k=3, n_shot=1, n_query=1, episodes=2, seed=0)
        with pytest.raises(ValueError, match="lambda_exponent"):
            evaluate(part, cfg, head="ridge", lambda_exponent=exponent)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_ridge_fit_rejects_non_finite_alpha(self, alpha):
        part = _random_partition(np.random.default_rng(32))
        ep = sample_episode(part, EpisodeConfig(k=2, n_shot=2, n_query=1, episodes=1, seed=0), 0)
        with pytest.raises(ValueError, match="alpha"):
            ridge_fit(ep, alpha=alpha)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0])
    def test_ridge_solve_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            ridge_solve(np.eye(2), np.eye(2), lam=lam)

    def test_overflowing_lambda_is_rejected(self):
        part = _random_partition(np.random.default_rng(33))
        cfg = EpisodeConfig(k=2, n_shot=2, n_query=1, episodes=1, seed=0)
        with pytest.raises(ValueError, match="lam"):
            evaluate(part, cfg, head="ridge", alpha=1e308)


class TestIntegerArguments:
    BASE = dict(k=2, n_shot=1, n_query=1, episodes=1, seed=0)

    @pytest.mark.parametrize(
        "field,value",
        [("k", 2.5), ("k", True), ("n_shot", "1"), ("n_query", float("nan")),
         ("episodes", 1.5), ("seed", 0.5), ("seed", False)],
    )
    def test_episode_config_rejects_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EpisodeConfig(**{**self.BASE, field: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0])
    def test_episode_config_accepts_integral_values(self, value):
        cfg = EpisodeConfig(k=value, n_shot=value, n_query=value, episodes=value, seed=value)
        assert (cfg.k, cfg.seed) == (3, 3) and type(cfg.k) is int and type(cfg.seed) is int

    @pytest.mark.parametrize("index", [0.5, True, "1"])
    def test_sample_episode_rejects_non_integer_index(self, index):
        part = _random_partition(np.random.default_rng(34))
        with pytest.raises(ValueError, match="episode_index must be an integer"):
            sample_episode(part, EpisodeConfig(**self.BASE), index)

    def test_sample_episode_accepts_integral_index(self):
        part = _random_partition(np.random.default_rng(35))
        cfg = EpisodeConfig(**self.BASE)
        want = sample_episode(part, cfg, 3)
        for index in (np.int64(3), 3.0):
            got = sample_episode(part, cfg, index)
            assert got.class_ids == want.class_ids
            np.testing.assert_array_equal(got.support, want.support)
