"""Command-line surface: analyze, fewshot, bounds, and synth subcommands.

Every command emits a single JSON document (stdout by default, or the
``-o`` path) that embeds the full effective configuration, so any run can
be re-created from its own output. Exit status: 0 success, 1 validation
error, 2 I/O error, 3 failed --verify check. Output files are written
atomically; a validation failure never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import fewshot as fewshot_mod
from . import metrics as metrics_mod
from . import synth as synth_mod
from .bounds import Prop1Inputs, Prop2Inputs, ReluBoundInputs
from .embeddings import FORMATS, load_embeddings, partition_by_class, save_embeddings
from .metrics import json_float


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad usage must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _infer_format(path: str, flag: str | None) -> str:
    if flag is not None:
        return flag
    lower = str(path).lower()
    if lower.endswith(".csv"):
        return "csv"
    if lower.endswith((".nceb", ".bin")):
        return "binary"
    raise ValueError(
        f"cannot infer format from {path!r}; pass --format {{{','.join(FORMATS)}}}"
    )


@contextlib.contextmanager
def _atomic_path(path: str):
    """Yield a temporary path beside ``path``: moved to ``path`` on success, deleted on failure."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".nckit-tmp-" + os.urandom(8).hex())
    # O_EXCL never reuses or follows an existing path; 0o666 under the umask, as open() does
    os.close(os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with _atomic_path(out_path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_FLAG_TYPES = {"int": int, "int | None": int, "float": _finite}
_FLAG_NAMES = {"M": "complexity_cap"}  # flag and params key; other parameters keep their names
_NOT_PARAMS = ("command", "run", "bound_name", "output", "verify", "trials", "seed")
_signature = functools.cache(inspect.signature)  # read once per process, not per call


@dataclass(frozen=True)
class _Bound:
    """One ``nckit bounds`` subcommand; its flags are the evaluator's parameters, ``_`` as ``-``."""

    help: str
    evaluator: str  # name in nckit.bounds, looked up at call time
    inputs: type | None = None  # dataclass the evaluator takes; None: keyword arguments
    verify: dict = field(default_factory=dict)  # --verify's integer flags; {}: no --verify
    defaults: dict = field(default_factory=dict)  # flag defaults the evaluator does not set
    fixed: dict = field(default_factory=dict)  # inputs fields that get no flag


_BOUNDS = {
    "lemma1": _Bound("population-variance bound", "lemma1_variance_bound"),
    "prop1": _Bound("same-class collapse generalization bound", "prop1_bound", Prop1Inputs),
    "prop2": _Bound("new-class collapse bound", "prop2_bound", Prop2Inputs),
    "prop3-eps1": _Bound(
        "first-moment concentration, ReLU maps", "prop3_eps1", ReluBoundInputs, defaults={"M": 1.0}
    ),
    "prop3-eps2": _Bound(
        "second-moment concentration, ReLU maps", "prop3_eps2", ReluBoundInputs, defaults={"M": 1.0}
    ),
    "prop4": _Bound(
        "Rademacher complexity bound for ReLU maps",
        "prop4_rademacher_bound",
        ReluBoundInputs,
        # prop4 ignores these fields, but the public evaluator takes a whole ReluBoundInputs
        fixed={"m_c": 1, "spectral_complexity": 0.0, "delta": 0.5},
    ),
    "prop5-general": _Bound("nearest-mean error bound", "prop5_general_bound"),
    "prop5-gaussian": _Bound(  # --verify draws n_c support points per class
        "spherical-Gaussian bound", "prop5_gaussian_bound", verify={"n_c": None, "trials": 20000}
    ),
    "prop5-relaxed": _Bound(
        "relaxed Gaussian error bound", "prop5_relaxed_bound", verify={"trials": 20000}
    ),
    "lemma2": _Bound(
        "minimal-distance bound in the unit cube", "lemma2_lower_bound", verify={"trials": 100000}
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="nckit", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser("analyze", help="collapse metrics of an embedding file")
    analyze.set_defaults(run=_run_analyze)
    analyze.add_argument("input", help="embedding file to analyze")
    analyze.add_argument("--format", choices=FORMATS, default=None)
    analyze.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    fewshot = sub.add_parser("fewshot", help="episode-based few-shot evaluation")
    fewshot.set_defaults(run=_run_fewshot)
    fewshot.add_argument("input", help="embedding file holding the class pool")
    fewshot.add_argument("--format", choices=FORMATS, default=None)
    fewshot.add_argument("--k", type=int, default=5, help="classes per episode (default 5)")
    fewshot.add_argument("--n-shot", type=int, required=True, help="support points per class")
    fewshot.add_argument("--n-query", type=int, default=100, help="query points per class")
    fewshot.add_argument("--episodes", type=int, default=100)
    fewshot.add_argument("--head", choices=fewshot_mod.HEADS, default="ridge")
    fewshot.add_argument("--alpha", type=_finite, default=1.0, help="ridge regularization scale")
    fewshot.add_argument(
        "--lambda-exponent",
        type=float,
        choices=fewshot_mod.LAMBDA_EXPONENTS,
        default=0.5,
        help="lambda = alpha * n ** exponent",
    )
    fewshot.add_argument("--seed", type=int, default=0)
    fewshot.add_argument("-o", "--output", default=None)

    bounds = sub.add_parser("bounds", help="closed-form bound evaluators and verifiers")
    bounds.set_defaults(run=_run_bounds)
    bsub = bounds.add_subparsers(dest="bound_name")
    for name, bound in _BOUNDS.items():
        sp = bsub.add_parser(name, help=bound.help)
        source = bound.inputs or getattr(bounds_mod, bound.evaluator)
        for param in _signature(source).parameters.values():
            if param.name in bound.fixed:
                continue
            flag = "--" + _FLAG_NAMES.get(param.name, param.name).replace("_", "-")
            kind = _FLAG_TYPES[param.annotation]
            default = bound.defaults.get(param.name, param.default)
            if default is param.empty:
                sp.add_argument(flag, dest=param.name, type=kind, required=True)
            else:
                sp.add_argument(flag, dest=param.name, type=kind, default=default)
        if bound.verify:
            sp.add_argument("--verify", action="store_true", help="Monte Carlo check")
            for dest, default in {**bound.verify, "seed": 0}.items():
                sp.add_argument("--" + dest.replace("_", "-"), type=int, default=default)
        sp.add_argument("-o", "--output", default=None)

    synth = sub.add_parser("synth", help="generate an embedding file from a mixture spec")
    synth.set_defaults(run=_run_synth)
    synth.add_argument("spec", help="JSON document mirroring the mixture spec fields")
    synth.add_argument("-o", "--output", required=True, help="embedding file to write")
    synth.add_argument("--format", choices=FORMATS, default=None)

    return parser


def _run_analyze(args) -> tuple[dict, bool, str | None]:
    fmt = _infer_format(args.input, args.format)
    embeddings = load_embeddings(args.input, format=fmt)
    partition = partition_by_class(embeddings)
    config = {
        "command": "analyze",
        "input": args.input,
        "format": fmt,
        "output": args.output,
    }
    doc = {
        "config": config,
        "cdnv": metrics_mod.cdnv_matrix(partition).to_json_dict(),
        "geometry": metrics_mod.geometry(partition).to_json_dict(),
        "ccnv": json_float(metrics_mod.ccnv(partition)),
    }
    return doc, True, args.output


def _run_fewshot(args) -> tuple[dict, bool, str | None]:
    fmt = _infer_format(args.input, args.format)
    embeddings = load_embeddings(args.input, format=fmt)
    partition = partition_by_class(embeddings)
    cfg = fewshot_mod.EpisodeConfig(
        k=args.k,
        n_shot=args.n_shot,
        n_query=args.n_query,
        episodes=args.episodes,
        seed=args.seed,
    )
    report = fewshot_mod.evaluate(
        partition, cfg, head=args.head, alpha=args.alpha, lambda_exponent=args.lambda_exponent
    )
    doc = report.to_json_dict()
    doc["config"] = {
        "command": "fewshot",
        "input": args.input,
        "format": fmt,
        "head": args.head,
        "k": args.k,
        "n_shot": args.n_shot,
        "n_query": args.n_query,
        "episodes": args.episodes,
        "alpha": args.alpha if args.head == "ridge" else None,
        "lambda_exponent": args.lambda_exponent if args.head == "ridge" else None,
        "seed": args.seed,
        "output": args.output,
    }
    return doc, True, args.output


def _run_bounds(args) -> tuple[dict, bool, str | None]:
    if args.bound_name is None:
        raise _UsageError("usage: nckit bounds <name> [params]\nerror: missing bound name")
    given = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and v is not None}
    params = {_FLAG_NAMES.get(k, k): v for k, v in sorted(given.items())}
    config = {
        "command": "bounds",
        "name": args.bound_name,
        "params": params,
        "verify": bool(getattr(args, "verify", False)),
        "output": args.output,
    }
    if getattr(args, "verify", False):
        config["trials"] = args.trials
        config["seed"] = args.seed
        if args.bound_name == "lemma2":
            report = bounds_mod.verify_lemma2_mc(args.n, args.p, args.trials, args.seed)
        else:
            if args.n_c is None:
                raise ValueError("--verify needs --n-c to draw support sets")
            # ETF means rescaled to unit pairwise distance, equal variances = v_max
            scale = 1.0 / math.sqrt(2.0 * args.k / (args.k - 1.0))
            means = synth_mod.simplex_etf_means(args.k, args.p, scale=scale)
            model = bounds_mod.GaussianClassModel(means, np.full(args.k, args.v_max))
            report = bounds_mod.verify_prop5_mc(model, args.n_c, args.trials, args.seed)
        doc = report.to_json_dict()
        doc["config"] = config
        return doc, report.satisfied, args.output
    bound = _BOUNDS[args.bound_name]
    values = {k: v for k, v in given.items() if k not in bound.verify}
    evaluate = getattr(bounds_mod, bound.evaluator)
    value = evaluate(bound.inputs(**values, **bound.fixed)) if bound.inputs else evaluate(**values)
    doc = {
        "config": config,
        "bound_name": args.bound_name,
        "params": params,
        "value": json_float(value),
    }
    return doc, True, args.output


def _run_synth(args) -> tuple[dict, bool, str | None]:
    fmt = _infer_format(args.output, args.format)
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid spec JSON: {exc}") from exc
    spec = synth_mod.MixtureSpec.from_json_dict(raw)
    embeddings = synth_mod.gaussian_mixture(spec)
    with _atomic_path(args.output) as tmp:
        save_embeddings(embeddings, tmp, format=fmt)
    doc = {
        "config": {
            "command": "synth",
            "spec": args.spec,
            "output": args.output,
            "format": fmt,
            "mixture": spec.to_json_dict(),
        },
        "rows": embeddings.n_rows,
        "dim": embeddings.dim,
        "classes": int(len(embeddings.class_ids)),
    }
    # the -o path is the generated data file; the JSON receipt goes to stdout
    return doc, True, None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage() + "error: missing command")
        doc, verified, json_path = args.run(args)
        _emit(doc, json_path)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    return 0 if verified else 3


if __name__ == "__main__":
    sys.exit(main())
