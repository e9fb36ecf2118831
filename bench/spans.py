"""Spans around the calls into nckit's layers, recorded from outside nckit.

Each traced function is replaced, in the module where its caller looks
it up, by a wrapper that records a span: name, start, end, parent span
and, for some layers, a size taken from the result (rows loaded, Monte
Carlo trials). Nothing in ``nckit`` itself is edited; ``uninstall``
restores the original functions, so untraced runs execute unwrapped code.
Spans are kept in memory and reduced to per-layer totals at the end.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, span name, size of the result or None)
TARGETS = (
    ("nckit.cli", "load_embeddings", "embeddings.load", lambda r: r.n_rows),
    ("nckit.cli", "partition_by_class", "embeddings.partition", None),
    ("nckit.cli", "save_embeddings", "embeddings.save", None),
    ("nckit.synth", "gaussian_mixture", "synth.gaussian_mixture", None),
    ("nckit.metrics", "cdnv_matrix", "metrics.cdnv_matrix", None),
    ("nckit.metrics", "class_stats", "metrics.class_stats", None),
    ("nckit.metrics", "geometry", "metrics.geometry", None),
    ("nckit.metrics", "ccnv", "metrics.ccnv", None),
    ("nckit.metrics", "pseudo_inverse", "metrics.pseudo_inverse", None),
    ("nckit.fewshot", "evaluate", "fewshot.evaluate", None),
    ("nckit.fewshot", "sample_episode", "fewshot.sample_episode", None),
    ("nckit.fewshot", "ridge_fit", "fewshot.ridge_fit", None),
    ("nckit.fewshot", "ncm_fit", "fewshot.ncm_fit", None),
    ("nckit.bounds", "verify_prop5_mc", "bounds.verify_prop5_mc", lambda r: r.trials),
    ("nckit.bounds", "verify_lemma2_mc", "bounds.verify_lemma2_mc", lambda r: r.trials),
    ("nckit.bounds", "prop5_bound_menu", "bounds.prop5_bound_menu", None),
)

# The span the benchmark opens around each nckit.cli.main call.
CLI_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    window: int = -1
    size: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    window: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, window=self.window))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, size):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if size is not None:
                self.spans[index].size = size(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists in the code under test."""
        for module_name, attr, name, size in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, size))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self, window: int) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time, call count and summed size."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.window == window and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span.window != window:
                continue
            row = out.setdefault(span.name, {"time": 0.0, "self": 0.0, "calls": 0, "size": 0})
            row["time"] += span.end - span.start
            row["self"] += span.end - span.start - child_time[i]
            row["calls"] += 1
            row["size"] += span.size
        return out


def _get(name, key="time"):
    return lambda t: t.get(name, {}).get(key, 0)


def _rate(*names):
    def rate(t):
        seconds = sum(t.get(n, {}).get("time", 0.0) for n in names)
        return sum(t.get(n, {}).get("size", 0) for n in names) / seconds if seconds else 0.0

    return rate


# Per-layer metric: (unit, better, phase it is taken from, reducer over totals).
# "setup" metrics come from traced `nckit synth` runs, "round" metrics from
# traced rounds of the job list.
LAYER_METRICS = {
    "embeddings.load_s": ("s", "lower", "round", _get("embeddings.load")),
    "embeddings.rows_per_s": ("rows/s", "higher", "round", _rate("embeddings.load")),
    "embeddings.partition_s": ("s", "lower", "round", _get("embeddings.partition")),
    "embeddings.save_s": ("s", "lower", "setup", _get("embeddings.save")),
    "synth.gaussian_mixture_s": ("s", "lower", "setup", _get("synth.gaussian_mixture")),
    "metrics.cdnv_matrix_s": ("s", "lower", "round", _get("metrics.cdnv_matrix")),
    "metrics.class_stats_calls": ("count", "lower", "round", _get("metrics.class_stats", "calls")),
    "metrics.geometry_s": ("s", "lower", "round", _get("metrics.geometry")),
    "metrics.ccnv_s": ("s", "lower", "round", _get("metrics.ccnv")),
    "metrics.pseudo_inverse_s": ("s", "lower", "round", _get("metrics.pseudo_inverse")),
    "fewshot.evaluate_s": ("s", "lower", "round", _get("fewshot.evaluate")),
    "fewshot.sample_episode_s": ("s", "lower", "round", _get("fewshot.sample_episode")),
    "fewshot.sample_episode_calls": (
        "count", "lower", "round", _get("fewshot.sample_episode", "calls"),
    ),
    "fewshot.ridge_fit_s": ("s", "lower", "round", _get("fewshot.ridge_fit")),
    "fewshot.ridge_fit_calls": ("count", "lower", "round", _get("fewshot.ridge_fit", "calls")),
    "fewshot.ncm_fit_s": ("s", "lower", "round", _get("fewshot.ncm_fit")),
    "fewshot.score_s": ("s", "lower", "round", _get("fewshot.evaluate", "self")),
    "bounds.verify_prop5_mc_s": ("s", "lower", "round", _get("bounds.verify_prop5_mc")),
    "bounds.verify_lemma2_mc_s": ("s", "lower", "round", _get("bounds.verify_lemma2_mc")),
    "bounds.prop5_bound_menu_s": ("s", "lower", "round", _get("bounds.prop5_bound_menu")),
    "bounds.mc_trials_per_s": (
        "trials/s", "higher", "round",
        _rate("bounds.verify_prop5_mc", "bounds.verify_lemma2_mc"),
    ),
    "cli.self_s": ("s", "lower", "round", _get(CLI_SPAN, "self")),
    "cli.stdout_bytes": ("bytes", "lower", "round", _get(CLI_SPAN, "size")),
}


def layer_metrics(tracer: Tracer, windows: dict[str, list[int]]) -> dict[str, float]:
    """Median over the traced windows of each phase of every layer metric."""
    totals = {phase: [tracer.totals(w) for w in ws] for phase, ws in windows.items()}
    return {
        name: float(statistics.median(reduce(t) for t in totals[phase]))
        for name, (_, _, phase, reduce) in LAYER_METRICS.items()
    }
