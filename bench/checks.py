"""Independent checks of nckit's CLI output.

The reference numbers are recomputed here with plain numpy: explicit
class-mean differences for CDNV and the minimal mean distance, an
eigendecomposition for the pseudoinverse in CCNV, ``np.linalg.solve`` of
the primal normal equations for ridge and an explicit nearest mean for
ncm. The embeddings come from the generator in memory, not from the file
nckit wrote, so a loader fault shows as a wrong answer. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9  # relative tolerance of recomputed floating-point statistics
MC_SIGMAS = 5.0  # allowed Monte Carlo deviation, in combined standard errors


def _close(name, got, want, rtol=RTOL) -> list[str]:
    if got is None or not math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0):
        return [f"{name}: got {got!r}, expected {want!r}"]
    return []


def _class_blocks(embeddings):
    labels = np.asarray(embeddings.labels)
    order = np.argsort(labels, kind="stable")
    ids, counts = np.unique(labels, return_counts=True)
    blocks = np.split(np.asarray(embeddings.features)[order], np.cumsum(counts)[:-1])
    return [int(c) for c in ids], blocks


def check_analyze(doc: dict, embeddings) -> list[str]:
    ids, blocks = _class_blocks(embeddings)
    means = np.stack([b.mean(axis=0) for b in blocks])
    variances = np.array([np.square(b - m).sum(axis=1).mean() for b, m in zip(blocks, means)])

    cdnv_sum, best, best_pair = 0.0, math.inf, None
    for i in range(len(ids) - 1):
        diff = means[i + 1 :] - means[i]
        sq = np.square(diff).sum(axis=1)
        cdnv_sum += float(((variances[i] + variances[i + 1 :]) / (2.0 * sq)).sum())
        j = int(np.argmin(sq))
        dist = math.sqrt(float(sq[j]))
        if dist < best:
            best, best_pair = dist, [ids[i], ids[i + 1 + j]]
    pairs = len(ids) * (len(ids) - 1) // 2

    sigma_w = sum((b - m).T @ (b - m) for b, m in zip(blocks, means)) / sum(map(len, blocks))
    between = means - means.mean(axis=0)
    sigma_b = between.T @ between / len(ids)
    eigval, eigvec = np.linalg.eigh(sigma_b)
    keep = eigval > max(sigma_b.shape) * np.finfo(np.float64).eps * eigval.max()
    vecs = eigvec[:, keep]
    ccnv = float((((sigma_w @ vecs) * vecs).sum(axis=0) / eigval[keep]).sum())

    problems = _close("cdnv.average", doc["cdnv"]["average"], cdnv_sum / pairs)
    problems += _close("geometry.min_mean_distance", doc["geometry"]["min_mean_distance"], best)
    if doc["geometry"]["argmin_pair"] != best_pair:
        got = doc["geometry"]["argmin_pair"]
        problems.append(f"geometry.argmin_pair: got {got}, expected {best_pair}")
    problems += _close("ccnv", doc["ccnv"], ccnv)
    return problems


def _episode_accuracy(episode, head: str, alpha: float) -> float:
    k, n_shot, p = episode.support.shape
    support = episode.support.reshape(k * n_shot, p)
    queries = episode.query.reshape(-1, p)
    truth = np.repeat(np.arange(k), episode.query.shape[1])
    if head == "ridge":
        n = k * n_shot
        onehot = np.repeat(np.eye(k), n_shot, axis=0)
        gram = support.T @ support + alpha * math.sqrt(n) * np.eye(p)
        weights = np.linalg.solve(gram, support.T @ onehot)
        predicted = np.argmax(queries @ weights, axis=1)
    else:
        means = episode.support.mean(axis=1)
        predicted = np.argmin(np.square(queries[:, None, :] - means[None]).sum(axis=2), axis=1)
    return float(np.mean(predicted == truth))


def check_fewshot(doc: dict, partition, cfg, head: str, alpha: float, samples=10) -> list[str]:
    from nckit.fewshot import sample_episode

    per_episode = doc["per_episode"]
    if len(per_episode) != cfg.episodes:
        return [f"per_episode holds {len(per_episode)} values, expected {cfg.episodes}"]
    problems = _close("mean_accuracy", doc["mean_accuracy"], float(np.mean(per_episode)), 1e-12)
    for i in sorted(set(np.linspace(0, cfg.episodes - 1, samples).astype(int).tolist())):
        want = _episode_accuracy(sample_episode(partition, cfg, i), head, alpha)
        if per_episode[i] != want:
            problems.append(f"episode {i}: accuracy {per_episode[i]}, recomputed {want}")
    return problems


def check_verify(doc: dict, ref: dict, trials: int, seed: int) -> list[str]:
    problems = []
    if doc["bound_name"] != ref["bound_name"]:
        problems.append(f"bound_name {doc['bound_name']!r}, expected {ref['bound_name']!r}")
    if doc["satisfied"] is not True:
        problems.append("verdict is not satisfied")
    if (doc["trials"], doc["seed"]) != (trials, seed):
        problems.append(f"trials/seed {doc['trials']}/{doc['seed']}, expected {trials}/{seed}")
    problems += _close("bound_value", doc["bound_value"], ref["bound_value"], 1e-12)
    # 1/trials keeps a zero-variance reference (no errors ever seen) checkable
    tol = MC_SIGMAS * math.hypot(doc["std_error"], ref["std_error"]) + 1.0 / trials
    if abs(doc["empirical_estimate"] - ref["estimate"]) > tol:
        problems.append(
            f"estimate {doc['empirical_estimate']} is more than {tol:.3g} from the "
            f"reference {ref['estimate']}"
        )
    return problems


def check_bound_value(doc: dict, want: float) -> list[str]:
    return _close(f"{doc['bound_name']} value", doc["value"], want, 1e-12)


def check_synth(doc: dict, data) -> list[str]:
    want = (data.classes * data.rows_per_class, data.p, data.classes)
    got = (doc["rows"], doc["dim"], doc["classes"])
    return [] if got == want else [f"rows/dim/classes {got}, expected {want}"]
