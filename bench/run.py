"""Benchmark of the nckit command line, end to end and layer by layer.

Usage, from the root of the repository:

    python3 bench/run.py [--workload wide|many|mc|all] [--seed N] [--seconds S] [--trace 0|1]

One workload is one closed-loop, single-client, single-process sequence
of nckit subcommands, each run in process through ``nckit.cli.main`` with
stdout captured. A run writes its inputs with ``nckit synth`` several
times (the set-up), warms up on tiny inputs, then repeats rounds of the
job list until ``--seconds`` have passed, and reports the median time of
each job. Afterwards every job's output is checked against an
independent recomputation (see ``checks.py``), and every repetition of a
job must print the same bytes.

With ``--trace 1`` every other set-up and round is traced (see
``spans.py``) and the per-layer metrics are reported instead, together
with the traced rounds' overhead over the untraced ones; traced and
untraced output must be identical.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs each workload in its
own process. Inputs are written under ``.bench_work/`` in the repository
and removed afterwards. BLAS runs on BLAS_THREADS threads, and the
interpreter runs with a fixed hash seed.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
HASH_SEED = "0"
if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    # Randomized str hashing changes allocation order, so peak memory and
    # timings vary from process to process; restart with a fixed hash seed.
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's nckit, not an installed one

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WARMUP, WORKLOADS, job_argvs, mixture_spec  # noqa: E402

MIN_ROUNDS = 2
WORK_DIR = ".bench_work"
# Each job starts from a trimmed heap, as a fresh `nckit` process would; without
# it peak memory depends on the fragmentation earlier jobs left behind.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "fewshot_ridge_s": "s",
    "fewshot_ncm_s": "s",
    "verify_prop5_s": "s",
    "verify_lemma2_s": "s",
    "bounds_sweep_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs CLI calls, times them, and keeps their outputs and failures."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.keys: list[tuple[str, ...]] = []  # argv of each call, by call index
        self.digests: dict[tuple[str, ...], str] = {}
        self.outputs: dict[tuple[str, ...], str] = {}
        self.failures: dict[int, str] = {}

    def call(self, argv: list[str], traced: bool = False) -> float:
        """Run one CLI call; return its wall time in seconds."""
        key = tuple(argv)
        index = len(self.keys)
        self.keys.append(key)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open(spans.CLI_SPAN) if traced else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - every failure is counted
            code = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
        text = out.getvalue()
        data = text.encode()
        if span is not None:
            self.tracer.spans[span].size = len(data)
        if code != 0:
            message = err.getvalue().strip()[-300:]
            self.failures[index] = f"{' '.join(argv[:2])}: exit {code}: {message}"
        digest = hashlib.sha256(data).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            self.outputs[key] = text
        elif self.digests[key] != digest:
            self.failures[index] = f"{' '.join(argv[:2])}: stdout differs from the first repetition"
        return seconds

    def fail_all(self, key: tuple[str, ...], reason: str) -> None:
        for index, k in enumerate(self.keys):
            if k == key:
                self.failures.setdefault(index, f"{' '.join(key[:2])}: {reason}")


def check_output(metric: str, argv: list[str], doc: dict, ref, refs: dict) -> list[str]:
    """Problems with one job's output; ``ref`` holds the generated embeddings
    and their partition, ``refs`` the stored references."""
    if metric == "analyze_s":
        return checks.check_analyze(doc, ref.embeddings)
    if metric.startswith("fewshot_"):
        from nckit.fewshot import EpisodeConfig

        opt = dict(zip(argv[2::2], argv[3::2]))
        names = ("k", "n_shot", "n_query", "episodes", "seed")
        cfg = EpisodeConfig(**{n: int(opt["--" + n.replace("_", "-")]) for n in names})
        return checks.check_fewshot(doc, ref.partition, cfg, opt["--head"], alpha=1.0)
    if metric.startswith("verify_"):
        trials = int(argv[argv.index("--trials") + 1])
        seed = int(argv[argv.index("--seed") + 1])
        return checks.check_verify(doc, refs[argv[1]], trials, seed)
    if metric == "bounds_sweep_s":
        return checks.check_bound_value(doc, refs["sweep"][argv[1]])
    raise KeyError(metric)


def write_spec(workload, seed: int, directory: Path) -> dict:
    spec = mixture_spec(workload.data, seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "spec.json").write_text(json.dumps(spec))
    return spec


def measure(name: str, seed: int, seconds: float, traced_run: bool, workdir: Path) -> dict:
    from nckit import cli

    workload = WORKLOADS[name]
    refs = json.loads((BENCH / "references.json").read_text())
    tracer = spans.Tracer()
    runner = Runner(cli, tracer)
    windows: dict[str, list[int]] = {"setup": [], "round": []}

    def window(phase: str, index: int) -> bool:
        # in a traced run every other set-up and round is traced
        traced = traced_run and index % 2 == 1
        if traced:
            tracer.window = len(windows["setup"]) + len(windows["round"])
            windows[phase].append(tracer.window)
            tracer.install()
        return traced

    def run_calls(argvs, traced=False) -> float:
        gc.collect()
        _malloc_trim(0)
        return sum(runner.call(argv, traced) for argv in argvs)

    clock = [time.perf_counter()]  # phase boundaries, for the run's metadata

    # warm-up on tiny inputs
    write_spec(WARMUP, seed, workdir / "warmup")
    warm_data = str(workdir / "warmup" / "data.nceb")
    run_calls([["synth", str(workdir / "warmup" / "spec.json"), "-o", warm_data]])
    for _, argvs, _ in job_argvs(WARMUP, warm_data, seed):
        run_calls(argvs)

    clock.append(time.perf_counter())

    # set-up: write the workload's embedding file, several times. Each copy
    # goes to a new directory, reached by the same relative paths, so that
    # every repetition prints the same bytes and no write replaces or
    # deletes a file (on ext4 that can wait for a flush to disk).
    spec = write_spec(workload, seed, workdir)
    data_name = "data.nceb" if workload.data.format == "binary" else "data.csv"
    synth_argv = ["synth", os.path.join("..", "spec.json"), "-o", data_name]
    setup_times = []
    for rep in range(workload.reps.get("setup_s", 3) + traced_run):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        os.chdir(rep_dir)
        traced = window("setup", rep)
        try:
            setup_times.append((traced, run_calls([synth_argv], traced)))
        finally:
            tracer.uninstall()
            os.chdir(ROOT)
    data_path = rep_dir / data_name

    clock.append(time.perf_counter())

    # rounds of the job list, closed loop
    jobs = job_argvs(workload, str(data_path), seed)
    rounds = []
    last = 0.0  # duration of the latest round
    # start no round that would end after the deadline, once the minimum ran
    while len(rounds) < MIN_ROUNDS + traced_run or time.perf_counter() + last - clock[-1] < seconds:
        round_start = time.perf_counter()
        traced = window("round", len(rounds))
        samples = {m: [run_calls(argvs, traced) for _ in range(reps)] for m, argvs, reps in jobs}
        rounds.append((traced, samples))
        tracer.uninstall()
        last = time.perf_counter() - round_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.append(time.perf_counter())

    # output checks, on the first output of each distinct call
    from nckit.embeddings import partition_by_class
    from nckit.synth import MixtureSpec, gaussian_mixture

    embeddings = gaussian_mixture(MixtureSpec.from_json_dict(spec))
    ref = types.SimpleNamespace(embeddings=embeddings, partition=partition_by_class(embeddings))
    for argv, check in [(synth_argv, "synth")] + [
        (argv, metric) for metric, argvs, _ in jobs for argv in dict.fromkeys(map(tuple, argvs))
    ]:
        key = tuple(argv)
        try:
            doc = json.loads(runner.outputs[key])
            if check == "synth":
                found = checks.check_synth(doc, workload.data)
            else:
                found = check_output(check, list(argv), doc, ref, refs)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed check
            found = [f"{type(exc).__name__}: {exc}"]
        for problem in found:
            runner.fail_all(key, problem)

    clock.append(time.perf_counter())

    untraced = [samples for traced, samples in rounds if not traced]
    if traced_run:
        def round_s(traced_rounds):
            totals = [sum(map(sum, samples.values())) for t, samples in rounds if t == traced_rounds]
            return statistics.median(totals)

        metrics = spans.layer_metrics(tracer, windows)
        metrics["trace_overhead_frac"] = round_s(True) / round_s(False) - 1.0
        units = {n: spec_[0] for n, spec_ in spans.LAYER_METRICS.items()}
        units["trace_overhead_frac"] = "fraction"
    else:
        metrics = {"setup_s": statistics.median(t for _, t in setup_times)}
        for metric, _, _ in jobs:
            metrics[metric] = statistics.median(t for samples in untraced for t in samples[metric])
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    return {
        "correct": not runner.failures,
        "attempted": len(runner.keys),
        "failed": len(runner.failures),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
        "problems": sorted(set(runner.failures.values())),
        "rounds": len(rounds),
        "setup_reps_s": [round(t, 4) for _, t in setup_times],
        "phase_s": dict(zip(("warmup", "setup", "rounds", "checks"), np.diff(clock).round(3))),
    }


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _test_count() -> int | None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "tests",
             "-p", "no:cacheprovider", "-p", "no:benchmark"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    tail = done.stdout.strip().splitlines()[-1:] or [""]
    first = tail[0].split()[0] if tail[0] else ""
    return int(first) if first.isdigit() else None


def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        return "unknown"


def metadata(name: str, seed: int, seconds: float, traced_run: bool, workdir: Path) -> dict:
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced_run),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": BLAS_THREADS,
        "data_dir": f"{WORK_DIR}/ ({_fs_type(workdir.resolve())})",
        "src_nckit_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in (ROOT / "src" / "nckit").glob("*.py")
        ),
        "tier1_tests": _test_count(),
    }


def run_one(name: str, seed: int, seconds: float, traced_run: bool) -> int:
    try:
        import nckit.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import nckit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(nckit.cli.__file__).resolve().parent != ROOT / "src" / "nckit":
        print(f"error: nckit imported from {nckit.cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = Path(WORK_DIR, Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)).name)
    try:
        result = measure(name, seed, seconds, traced_run, workdir)
        meta = metadata(name, seed, seconds, traced_run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    for key in ("rounds", "setup_reps_s", "phase_s"):
        meta[key] = result.pop(key)
    print("meta " + json.dumps(meta))
    for problem in result.pop("problems"):
        print(f"FAILED {problem}", file=sys.stderr)
    for metric, m in result["metrics"].items():
        print(f"{name:>5} {metric:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:>5} {'failed_frac':<30} {result['failed'] / result['attempted']:>14.6g} fraction")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced_run: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced_run))]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
