import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nckit.bounds as bounds_mod
import nckit.cli as cli_mod
import nckit.metrics as metrics_mod
from nckit.cli import main
from nckit.embeddings import LabeledEmbeddings, load_embeddings, partition_by_class, save_embeddings
from nckit.synth import collapsed_set, simplex_etf_means


@pytest.fixture
def collapsed_csv(tmp_path):
    path = tmp_path / "collapsed.csv"
    save_embeddings(collapsed_set(simplex_etf_means(3, 4), 4), path, format="csv")
    return path


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_collapsed_file_reports_zero_collapse(self, capsys, collapsed_csv):
        code, out, _ = _run(capsys, ["analyze", str(collapsed_csv)])
        assert code == 0
        doc = json.loads(out)
        assert doc["cdnv"]["average"] == 0.0
        assert doc["ccnv"] == pytest.approx(0.0, abs=1e-12)
        assert doc["config"]["command"] == "analyze"
        assert doc["config"]["format"] == "csv"

    def test_output_file(self, capsys, collapsed_csv, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = _run(capsys, ["analyze", str(collapsed_csv), "-o", str(out_path)])
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["cdnv"]["average"] == 0.0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["analyze", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "i/o" in err

    def test_malformed_file_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f0\n0,1.0,2.0\n")
        code, _, err = _run(capsys, ["analyze", str(bad)])
        assert code == 1
        assert "row 0" in err

    def test_no_partial_output_on_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f0\nnot-a-label,1.0\n")
        out_path = tmp_path / "report.json"
        code, _, _ = _run(capsys, ["analyze", str(bad), "-o", str(out_path)])
        assert code == 1
        assert not out_path.exists()

    def test_one_class_moments_pass(self, capsys, tmp_path, monkeypatch):
        calls = []
        class_stats = metrics_mod.class_stats
        counted = lambda pts: calls.append(1) or class_stats(pts)  # noqa: E731
        monkeypatch.setattr(metrics_mod, "class_stats", counted)
        path = tmp_path / "seeded.csv"
        save_embeddings(_interleaved_set(31, 17, 3, 2, 6, 1.0), path, format="csv")
        code, _, _ = _run(capsys, ["analyze", str(path)])
        assert code == 0
        assert len(calls) == 17

    def test_unknown_extension_needs_format_flag(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["analyze", str(tmp_path / "data.dat")])
        assert code == 1
        assert "--format" in err


class TestFewshot:
    def test_byte_identical_reports(self, capsys, collapsed_csv):
        argv = [
            "fewshot",
            str(collapsed_csv),
            "--k", "3",
            "--n-shot", "1",
            "--n-query", "2",
            "--episodes", "5",
            "--seed", "11",
        ]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_shape_and_config(self, capsys, collapsed_csv):
        code, out, _ = _run(
            capsys,
            [
                "fewshot",
                str(collapsed_csv),
                "--k", "3",
                "--n-shot", "1",
                "--n-query", "2",
                "--episodes", "4",
                "--head", "ncm",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["head"] == "ncm"
        assert doc["mean_accuracy"] == 1.0
        assert len(doc["per_episode"]) == 4
        assert doc["config"]["episodes"] == 4
        assert doc["config"]["alpha"] is None  # ncm resolves ridge knobs away

    def test_nc_threads_does_not_change_output(self, capsys, collapsed_csv, monkeypatch):
        argv = ["fewshot", str(collapsed_csv), "--k", "3", "--n-shot", "1",
                "--n-query", "2", "--episodes", "5", "--seed", "3"]
        monkeypatch.setenv("NC_THREADS", "1")
        _, out1, _ = _run(capsys, argv)
        monkeypatch.setenv("NC_THREADS", "4")
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_is_rejected(self, capsys, collapsed_csv, value):
        argv = ["fewshot", str(collapsed_csv), "--k", "3", "--n-shot", "1", "--alpha", value]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert "argument --alpha" in err

    def test_invalid_protocol_is_validation_error(self, capsys, collapsed_csv):
        code, _, err = _run(
            capsys,
            ["fewshot", str(collapsed_csv), "--k", "9", "--n-shot", "1"],
        )
        assert code == 1


class TestBounds:
    def test_prop5_general_value(self, capsys):
        code, out, _ = _run(
            capsys,
            ["bounds", "prop5-general", "--k", "2", "--n-c", "5", "--avg-cdnv", "0.01"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.192, rel=1e-12)
        assert doc["config"]["params"]["avg_cdnv"] == 0.01

    def test_prop1_value(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "bounds", "prop1",
                "--empirical-cdnv", "0.1",
                "--eps1-i", "0.01", "--eps1-j", "0.01",
                "--eps2-i", "0.01", "--eps2-j", "0.01",
                "--mean-norm-i", "1", "--mean-norm-j", "1",
                "--pop-mean-dist", "1", "--emp-mean-dist", "1",
            ],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.135356, rel=1e-5)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["lemma1", "--emp-var", "0.5", "--eps1", "0.1", "--eps2", "0.02",
              "--pop-mean-norm", "1"], 0.73),
            (["prop2", "--avg-source-cdnv", "0", "--delta-fstar", "1", "--sup-var", "1",
              "--sup-feat-norm", "1", "--l", "2", "--rademacher", "0",
              "--delta", "0.36787944117144233"], 7.071068),
            (["prop3-eps1", "--p", "1", "--q", "1", "--l", "1", "--m-c", "1",
              "--sup-x-norm", "1", "--spectral-complexity", "0", "--delta", "0.25"],
             6.177410),
            (["prop3-eps2", "--p", "1", "--q", "1", "--l", "1", "--m-c", "1",
              "--sup-x-norm", "1", "--spectral-complexity", "0", "--complexity-cap", "1",
              "--delta", "0.25"], 13.532229),
            (["prop4", "--p", "1", "--q", "1", "--l", "1", "--complexity-cap", "1",
              "--sup-x-norm", "1"], 12.5),
            (["prop5-gaussian", "--k", "2", "--p", "2", "--v-max", "0.01"], 0.115827),
            (["prop5-relaxed", "--k", "2", "--p", "4", "--n-c", "16", "--v-max", "0.25",
              "--gamma", "0.5"], 0.148336),
            (["lemma2", "--n", "2", "--p", "2"], 0.376127),
        ],
    )
    def test_every_evaluator_name(self, capsys, argv, expected):
        code, out, _ = _run(capsys, ["bounds"] + argv)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-5)

    def test_lemma2_verify_satisfied(self, capsys):
        code, out, _ = _run(
            capsys,
            ["bounds", "lemma2", "--n", "2", "--p", "2", "--verify", "--trials", "2000"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfied"] is True
        assert doc["config"]["trials"] == 2000

    def test_prop5_gaussian_verify(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "bounds", "prop5-gaussian",
                "--k", "2", "--p", "8", "--v-max", "0.02",
                "--verify", "--n-c", "2", "--trials", "500", "--seed", "4",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfied"] is True
        assert doc["params"]["v_max"] == pytest.approx(0.02)

    def test_precondition_violation_is_validation_error(self, capsys):
        code, _, err = _run(
            capsys, ["bounds", "prop5-gaussian", "--k", "2", "--p", "8", "--v-max", "0.5"]
        )
        assert code == 1
        assert "1/16" in err

    def test_failed_verify_exits_3(self, capsys, monkeypatch):
        failing = bounds_mod.BoundCheckReport(
            bound_name="lemma2",
            params={"n": 2, "p": 2},
            bound_value=0.9,
            empirical_estimate=0.5,
            std_error=0.001,
            trials=200,
            seed=0,
            satisfied=False,
        )
        monkeypatch.setattr(bounds_mod, "verify_lemma2_mc", lambda *a, **k: failing)
        code, out, _ = _run(
            capsys, ["bounds", "lemma2", "--n", "2", "--p", "2", "--verify", "--trials", "200"]
        )
        assert code == 3
        assert json.loads(out)["satisfied"] is False

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_is_rejected(self, capsys, value):
        argv = ["bounds", "lemma1", "--emp-var", value, "--eps1", "0.1", "--eps2", "0.2",
                "--pop-mean-norm", "3"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert "argument --emp-var" in err

    def test_missing_bound_name(self, capsys):
        code, _, err = _run(capsys, ["bounds"])
        assert code == 1
        assert "usage" in err


# Exit code, stdout and last stderr line of `nckit bounds` argv lists, recorded
# before the bounds CLI was generated from a table: every argv list of this
# file, the closed-form sweep and both --verify calls of bench/workloads.py
# (with fewer trials), and usage and validation errors.
GOLDEN_BOUNDS = json.loads((Path(__file__).parent / "golden_bounds.json").read_text())


@pytest.mark.parametrize(
    "case",
    GOLDEN_BOUNDS,
    ids=[f"{i:02d}-{'-'.join(c['argv'][1:2])}" for i, c in enumerate(GOLDEN_BOUNDS)],
)
def test_bounds_golden(capsys, case):
    code, out, err = _run(capsys, case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
    assert (err.splitlines() or [""])[-1] == case["stderr_last_line"]


def _seeded_groups(seed, k, p, max_rows):
    rng = np.random.default_rng(seed)
    labels = np.sort(rng.choice(10 * k, size=k, replace=False))
    means = rng.normal(scale=3.0, size=(k, p))
    return {
        int(lab): mean + rng.normal(size=(int(rng.integers(1, max_rows + 1)), p))
        for lab, mean in zip(labels, means)
    }


def _golden_analyze_inputs():
    """Named embedding sets whose `nckit analyze` output is pinned."""
    sets = {"collapsed-etf": collapsed_set(simplex_etf_means(3, 4), 4)}
    groups = {
        "oracle": {
            0: [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
            1: [[5.0, 5.0], [6.0, 4.0]],
            2: [[-3.0, 2.0], [-4.0, 2.0], [-3.5, 2.5], [-3.0, 1.5]],
        },
        "degenerate": {3: [[0.0], [2.0]], 8: [[-1.0], [3.0]], 9: [[9.0], [9.0]]},
        # pairs (0, 3) and (1, 2) both at distance 1: row 0's nearest is a later column
        "tie-across-rows": {0: [[-0.5], [0.5]], 1: [[9.5], [10.5]], 2: [[11.0]], 3: [[1.0]]},
        # classes 0 and 1 collapse onto the same point
        "coincident-collapsed": {
            0: [[1.0, 2.0, 3.0]] * 3,
            1: [[1.0, 2.0, 3.0]] * 2,
            2: [[0.5, 2.0, 4.0], [1.5, 2.5, 3.0]],
            5: [[-1.0, 0.0, 0.0], [-2.0, 1.0, 0.5], [-1.5, 0.5, 0.0]],
        },
    }
    for seed, (k, p, max_rows) in enumerate(
        [(2, 1, 5), (5, 3, 6), (9, 40, 4), (20, 10, 6), (30, 2, 5), (60, 40, 4)]
    ):
        groups[f"seeded-k{k}-p{p}"] = _seeded_groups(seed, k, p, max_rows)
    for name, grp in groups.items():
        sets[name] = LabeledEmbeddings(
            labels=np.concatenate([[lab] * len(rows) for lab, rows in grp.items()]),
            features=np.concatenate([np.asarray(rows, dtype=float) for rows in grp.values()]),
        )
    return sets


# `nckit analyze` stdout (input path replaced by "<input>"), recorded before the
# pairwise distances, traces and CCNV were computed without p x p scatter matrices.
GOLDEN_ANALYZE = json.loads((Path(__file__).parent / "golden_analyze.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_analyze_golden(capsys, tmp_path, name):
    path = tmp_path / "input.csv"
    save_embeddings(_golden_analyze_inputs()[name], path, format="csv")
    code, out, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0
    got = json.loads(out)
    want = json.loads(GOLDEN_ANALYZE[name])
    assert json.dumps(got["cdnv"]) == json.dumps(want["cdnv"])
    for key in ("argmin_pair", "min_mean_distance", "global_mean"):
        assert json.dumps(got["geometry"][key]) == json.dumps(want["geometry"][key])
    assert got["ccnv"] == pytest.approx(want["ccnv"], rel=1e-12, abs=0)
    for key in ("within_trace", "between_trace"):
        assert got["geometry"][key] == pytest.approx(want["geometry"][key], rel=1e-14, abs=0)


@pytest.mark.parametrize("name", ["degenerate", "coincident-collapsed", "seeded-k20-p10"])
def test_analyze_matrix_writer(capsys, tmp_path, name):
    # NaN diagonal everywhere, "inf" pairs in the first two sets
    embeddings = _golden_analyze_inputs()[name]
    path = tmp_path / "input.csv"
    save_embeddings(embeddings, path, format="csv")
    code, out, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0
    doc = json.loads(out)
    want = metrics_mod.cdnv_matrix(partition_by_class(embeddings)).to_json_dict()
    assert doc["cdnv"] == want
    # the whole document is laid out as json.dumps writes it
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    report = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["analyze", str(path), "-o", str(report)])
    assert code == 0
    output = json.dumps({"output": str(report)})[1:-1]  # the one line the -o path changes
    assert report.read_text() == out.replace('"output": null', output)


def test_non_utf8_input_is_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"label,f0\n0,1.0\n1,\x88\n")
    code, _, err = _run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert "row 1: not UTF-8 text" in err


def _interleaved_set(seed, k, p, min_rows, max_rows, spread):
    """Seeded classes with non-contiguous ids and unequal sizes, rows shuffled
    so that the labels interleave and each class's row order is the file's."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(7 * k, size=k, replace=False))
    means = rng.normal(scale=spread, size=(k, p))
    sizes = rng.integers(min_rows, max_rows + 1, size=k)
    labels = np.repeat(ids, sizes)
    features = np.repeat(means, sizes, axis=0) + rng.normal(size=(labels.size, p))
    order = rng.permutation(labels.size)
    return LabeledEmbeddings(labels=labels[order], features=features[order])


def _golden_fewshot_cases():
    """Named (embedding set, fewshot flags) pairs whose stdout is pinned."""
    # support n = 4 * 3 = 12 < p = 40; classes of 6..14 rows, some too small for 8
    wide = _interleaved_set(101, 12, 40, 6, 14, 0.35)
    # support n = 5 * 8 = 40 > p = 5; classes of 12..40 rows, some too small for 18
    tall = _interleaved_set(202, 12, 5, 12, 40, 0.6)
    wide_flags = ["--k", "4", "--n-shot", "3", "--n-query", "5", "--episodes", "60"]
    tall_flags = ["--k", "5", "--n-shot", "8", "--n-query", "10", "--episodes", "50"]
    return {
        "wide-ridge-plus": (wide, wide_flags + ["--seed", "5"]),
        "wide-ridge-minus": (wide, wide_flags + ["--lambda-exponent", "-0.5", "--alpha", "0.3"]),
        "wide-ncm": (wide, wide_flags + ["--head", "ncm", "--seed", "6"]),
        "tall-ridge-plus": (tall, tall_flags + ["--alpha", "2.0", "--seed", "7"]),
        "tall-ridge-minus": (tall, tall_flags + ["--lambda-exponent", "-0.5", "--seed", "8"]),
        "tall-ncm": (tall, tall_flags + ["--head", "ncm"]),
    }


# `nckit fewshot` stdout, run from the input's directory, recorded before the
# ridge fit became one solve and the partition one stable gather.
GOLDEN_FEWSHOT = json.loads((Path(__file__).parent / "golden_fewshot.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_FEWSHOT))
def test_fewshot_golden(capsys, tmp_path, monkeypatch, name):
    embeddings, flags = _golden_fewshot_cases()[name]
    save_embeddings(embeddings, tmp_path / "input.csv", format="csv")
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, ["fewshot", "input.csv", *flags])
    assert code == 0
    assert out == GOLDEN_FEWSHOT[name]


class TestSynth:
    def test_generates_loadable_file(self, capsys, tmp_path):
        spec = {
            "p": 2,
            "class_means": [[0.0, 0.0], [5.0, 5.0]],
            "total_variances": [0.1, 0.1],
            "samples_per_class": 10,
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "mix.csv"
        code, out, _ = _run(capsys, ["synth", str(spec_path), "-o", str(out_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == 20 and doc["dim"] == 2 and doc["classes"] == 2
        emb = load_embeddings(out_path, format="csv")
        assert emb.n_rows == 20

    def test_binary_output(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "class_means": [[0.0], [4.0]],
                    "total_variances": [0.0, 0.0],
                    "samples_per_class": 3,
                }
            )
        )
        out_path = tmp_path / "mix.nceb"
        code, _, _ = _run(capsys, ["synth", str(spec_path), "-o", str(out_path)])
        assert code == 0
        emb = load_embeddings(out_path, format="binary")
        assert emb.n_rows == 6

    def test_invalid_spec_no_partial_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        out_path = tmp_path / "mix.csv"
        code, _, err = _run(capsys, ["synth", str(spec_path), "-o", str(out_path)])
        assert code == 1
        assert not out_path.exists()

    def test_failed_save_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"class_means": [[0.0], [4.0]],
                                         "total_variances": [0.1, 0.1],
                                         "samples_per_class": 3}))

        def failing_save(embeddings, path, format):
            Path(path).write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli_mod, "save_embeddings", failing_save)
        code, out, err = _run(capsys, ["synth", str(spec_path), "-o", str(tmp_path / "mix.csv")])
        assert code == 2 and out == ""
        assert "disk full" in err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    @pytest.mark.parametrize(
        "field,value",
        [("samples_per_class", 2.7), ("samples_per_class", True), ("seed", 1.9), ("p", 1.5)],
    )
    def test_fractional_spec_integer_writes_no_file(self, capsys, tmp_path, field, value):
        spec = {"p": 1, "class_means": [[0.0], [4.0]], "total_variances": [0.1, 0.1],
                "samples_per_class": 3, field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["synth", str(spec_path), "-o", str(tmp_path / "mix.csv")])
        assert code == 1 and out == ""
        assert f"{field} must be an integer" in err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("command", ["bounds", "synth"])
def test_output_files_follow_the_umask(capsys, tmp_path, command):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"class_means": [[0.0], [4.0]],
                                     "total_variances": [0.1, 0.1],
                                     "samples_per_class": 3}))
    out_path = tmp_path / ("out.json" if command == "bounds" else "mix.csv")
    argv = {
        "bounds": ["bounds", "lemma2", "--n", "2", "--p", "2", "-o", str(out_path)],
        "synth": ["synth", str(spec_path), "-o", str(out_path)],
    }[command]
    old = os.umask(0o022)
    try:
        assert _run(capsys, argv)[0] == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o644
        out_path.chmod(0o640)  # an existing file is replaced by a new one
        assert _run(capsys, argv)[0] == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o644
        os.umask(0o077)
        assert _run(capsys, argv)[0] == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o600
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["spec.json", out_path.name])


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = _run(capsys, ["frobnicate"])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys, collapsed_csv):
        code, _, err = _run(capsys, ["analyze", str(collapsed_csv), "--bogus"])
        assert code == 1
        assert "usage" in err

    def test_no_command(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1

    def test_console_entry_point(self, collapsed_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "nckit", "analyze", str(collapsed_csv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cdnv"]["average"] == 0.0
