"""Regenerate ``references.json``, the stored answers the benchmark checks against.

    python3 bench/make_references.py

The Monte Carlo references are estimates from many more trials than any
workload runs, at a seed no workload derives; the closed-form values are
the sweep's outputs. Run it only when a bound's definition changes on
purpose, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import SWEEP, lemma2_argv, prop5_argv  # noqa: E402

from nckit import cli  # noqa: E402

REFERENCE_SEED = 20211229
REFERENCE_TRIALS = {"prop5-gaussian": 2_000_000, "lemma2": 1_000_000}


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def main() -> None:
    refs = {}
    for name, make_argv in (("prop5-gaussian", prop5_argv), ("lemma2", lemma2_argv)):
        doc = run(make_argv(REFERENCE_TRIALS[name], REFERENCE_SEED))
        refs[name] = {
            "bound_name": doc["bound_name"],
            "bound_value": doc["bound_value"],
            "estimate": doc["empirical_estimate"],
            "std_error": doc["std_error"],
            "trials": doc["trials"],
            "seed": doc["seed"],
        }
    refs["sweep"] = {argv[0]: run(["bounds", *argv])["value"] for argv in SWEEP}
    (BENCH / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
