import csv
import hashlib
import json
import re
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mbpolicy import (
    CsvSchema,
    TreePolicy,
    aipw_value_estimate,
    arm_proportion_propensity,
    evaluate_policy,
    fit_ols_per_arm,
    load_csv,
    predict_matrix,
)
from mbpolicy.cli import main


@pytest.fixture
def learn_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("w,y,x\n1,0,0\n0,1,1\n1,4,2\n0,2,3\n")
    return path


@pytest.fixture
def eval_csv(tmp_path):
    rng = np.random.default_rng(101)
    lines = ["treat,re78,a,b"]
    for i in range(20):
        w = i % 2
        a, b = rng.normal(), rng.normal()
        y = 2.0 + a - 0.5 * b + w * (1.0 + (a > 0)) + rng.normal() * 0.3
        lines.append(f"{w},{y:.6f},{a:.6f},{b:.6f}")
    path = tmp_path / "study.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_args(out, extra=()):
    return [
        "simulate", "--scenario", "1", "--main", "linear", "--contrast", "tree",
        "--n", "80", "--method", "mb-m1", "--reps", "2", "--test-n", "400",
        "--out", str(out), *extra,
    ]


class TestSimulate:
    def test_smoke_outputs_and_rerun_identical(self, tmp_path, capsys):
        first, second = tmp_path / "run1", tmp_path / "run2"
        assert main(simulate_args(first)) == 0
        for name in ("results.csv", "summary.csv", "timings.csv",
                      "manifest.json", "outputs.sha256"):
            assert (first / name).exists()
        assert "mb-m1: mean value" in capsys.readouterr().out

        assert main(simulate_args(second)) == 0
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
        assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
        assert (first / "outputs.sha256").read_text() == (second / "outputs.sha256").read_text()

    def test_checksum_file_matches_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert main(simulate_args(out)) == 0
        for line in (out / "outputs.sha256").read_text().splitlines():
            digest, name = line.split("  ")
            assert digest == sha256(out / name)

    def test_threads_do_not_change_outputs(self, tmp_path):
        one, two = tmp_path / "t1", tmp_path / "t2"
        assert main(simulate_args(one, ["--threads", "1"])) == 0
        assert main(simulate_args(two, ["--threads", "2"])) == 0
        for name in ("results.csv", "summary.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_zero_reps_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", "--scenario", "1", "--main", "linear",
                "--contrast", "tree", "--n", "80", "--reps", "0",
                "--out", str(tmp_path / "run"),
            ])
        assert excinfo.value.code == 2

    def test_non_integer_reps_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(simulate_args(tmp_path / "run", extra=["--reps", "x"]))
        assert excinfo.value.code == 2
        assert "--reps: 'x' is not an integer" in capsys.readouterr().err

    def test_all_replicates_failed_exits_1(self, tmp_path, capsys):
        assert main(simulate_args(tmp_path / "run", extra=["--n", "1"])) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "all replicates failed"

    def test_unknown_method_is_a_usage_error(self, tmp_path, capsys):
        code = main(simulate_args(tmp_path / "x", extra=["--method", "forest"]))
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", ["mb-m1,mb-m1", ",", "mb-m5, mb-m1 ,mb-m5"])
    def test_repeated_or_empty_method_list_is_a_usage_error(self, tmp_path, capsys, methods):
        out = tmp_path / "x"
        assert main(simulate_args(out, extra=["--method", methods])) == 2
        assert "--method" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_manifest_records_parameters(self, tmp_path):
        out = tmp_path / "run"
        assert main(simulate_args(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["parameters"]["n"] == 80
        assert manifest["parameters"]["methods"] == ["mb-m1"]
        assert manifest["inputs"] == {}


class TestLearn:
    def test_four_row_stump(self, learn_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        code = main([
            "learn", "--data", str(learn_csv), "--treatment-col", "w",
            "--outcome-col", "y", "--m", "1", "--correction", "none",
            "--depth", "1", "--out", str(out),
        ])
        assert code == 0
        tree = TreePolicy.from_text((out / "policy.txt").read_text())
        assert tree.depth == 1
        assert tree.features[0] == 0
        assert tree.thresholds[0] == 1.5
        np.testing.assert_array_equal(tree.leaf_actions, [0, 1])
        assert TreePolicy.from_json((out / "policy.json").read_text()) == tree
        assert "if x[0] (x) <= 1.5:" in capsys.readouterr().out

        gamma_lines = (out / "gamma.csv").read_text().strip().splitlines()
        assert gamma_lines[0] == "unit,w,y,y0_imputed,y1_imputed,gamma"
        gammas = [float(line.split(",")[-1]) for line in gamma_lines[1:]]
        assert gammas == [-1.0, -1.0, 3.0, 2.0]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["data"]["sha256"] == sha256(learn_csv)

    def test_exclude_restricts_splits(self, eval_csv, tmp_path):
        out = tmp_path / "fit"
        code = main([
            "learn", "--data", str(eval_csv), "--m", "1", "--correction", "none",
            "--depth", "1", "--exclude", "a", "--out", str(out),
        ])
        assert code == 0
        tree = TreePolicy.from_json((out / "policy.json").read_text())
        assert set(tree.features.tolist()) == {1}  # only column b is eligible
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["excluded_from_policy"] == ["a"]

    def test_missing_column_is_a_runtime_error(self, learn_csv, tmp_path, capsys):
        code = main([
            "learn", "--data", str(learn_csv), "--treatment-col", "w",
            "--outcome-col", "z", "--out", str(tmp_path / "fit"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'z'" in err

    def test_missing_file_is_a_runtime_error(self, tmp_path, capsys):
        code = main(["learn", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "fit")])
        assert code == 1
        assert "not found" in capsys.readouterr().err


    def test_one_lasso_fold_is_a_usage_error(self, learn_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["learn", "--data", str(learn_csv), "--treatment-col", "w",
                  "--outcome-col", "y", "--lasso-folds", "1", "--out", str(tmp_path / "fit")])
        assert excinfo.value.code == 2
        assert "--lasso-folds: must be an integer >= 2" in capsys.readouterr().err


class TestEvaluate:
    def test_treat_all_policy(self, eval_csv, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", str(eval_csv), "--policy", "treat-all",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["policy"] == "treat-all"
        assert payload["n_treated_by_policy"] == 20
        assert np.isfinite(payload["value"])
        assert "estimated value" in capsys.readouterr().out

    def test_value_uses_full_data_quadratic_ols(self, eval_csv, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--data", str(eval_csv), "--policy", "treat-all",
                     "--out", str(out)]) == 0
        data = load_csv(eval_csv, CsvSchema("treat", "re78", ("a", "b")))
        expected = aipw_value_estimate(
            data, np.ones(data.n, dtype=int), arm_proportion_propensity(data),
            partial(predict_matrix, fit_ols_per_arm(data, "quadratic")),
        )
        assert json.loads((out / "evaluation.json").read_text())["value"] == expected

    def test_treat_none_policy(self, eval_csv, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--data", str(eval_csv), "--policy", "treat-none",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["n_treated_by_policy"] == 0

    def test_policy_file_round_trip(self, eval_csv, tmp_path):
        fit = tmp_path / "fit"
        assert main(["learn", "--data", str(eval_csv), "--m", "1",
                     "--correction", "none", "--depth", "1", "--out", str(fit)]) == 0
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", str(eval_csv),
                     "--policy", str(fit / "policy.json"), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert 0 <= payload["n_treated_by_policy"] <= 20

    def test_manifest_hashes_the_policy_file(self, eval_csv, tmp_path):
        fit = tmp_path / "fit"
        assert main(["learn", "--data", str(eval_csv), "--m", "1",
                     "--correction", "none", "--depth", "1", "--out", str(fit)]) == 0
        for policy in (fit / "policy.json", fit / "policy.txt"):
            out = tmp_path / f"eval-{policy.suffix[1:]}"
            assert main(["evaluate", "--data", str(eval_csv),
                         "--policy", str(policy), "--out", str(out)]) == 0
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            assert inputs == {
                "data": {"path": str(eval_csv), "sha256": sha256(eval_csv)},
                "policy": {"path": str(policy), "sha256": sha256(policy)},
            }
        out = tmp_path / "eval-constant"
        assert main(["evaluate", "--data", str(eval_csv), "--out", str(out)]) == 0
        assert list(json.loads((out / "manifest.json").read_text())["inputs"]) == ["data"]

    def test_missing_policy_file_writes_no_manifest(self, eval_csv, tmp_path):
        out = tmp_path / "e"
        assert main(["evaluate", "--data", str(eval_csv),
                     "--policy", str(tmp_path / "nope.json"), "--out", str(out)]) == 1
        assert not (out / "manifest.json").exists()

    def test_missing_policy_file(self, eval_csv, tmp_path, capsys):
        code = main(["evaluate", "--data", str(eval_csv),
                     "--policy", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "treat-all" in capsys.readouterr().err

    def test_cross_validated_value_reproducible(self, eval_csv, tmp_path, capsys):
        args = lambda out: [
            "evaluate", "--data", str(eval_csv), "--cv", "--method", "mb-m1",
            "--folds", "5", "--repeats", "3", "--out", str(out),
        ]
        first, second = tmp_path / "cv1", tmp_path / "cv2"
        assert main(args(first)) == 0
        assert "cross-validated value" in capsys.readouterr().out
        payload = json.loads((first / "evaluation.json").read_text())
        assert payload["repeats"] == 3 and payload["folds"] == 5
        assert payload["method"] == "mb-m1"
        lines = (first / "cv_values.csv").read_text().strip().splitlines()
        assert lines[0] == "repeat,value" and len(lines) == 4

        assert main(args(second)) == 0
        assert (first / "cv_values.csv").read_bytes() == (second / "cv_values.csv").read_bytes()
        assert (first / "evaluation.json").read_bytes() == (second / "evaluation.json").read_bytes()

    def test_one_cv_fold_is_a_usage_error(self, eval_csv, tmp_path, capsys):
        out = tmp_path / "cv"
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--data", str(eval_csv), "--cv", "--folds", "1",
                  "--out", str(out)])
        assert excinfo.value.code == 2
        assert "--folds: must be an integer >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_with_cv_is_a_usage_error(self, eval_csv, tmp_path, capsys):
        # --cv values a learner, not a policy: a --policy beside it would go unread
        out = tmp_path / "cv"
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--data", str(eval_csv), "--cv", "--repeats", "1", "--method",
                  "mb-m5", "--policy", str(tmp_path / "does-not-exist.json"), "--out", str(out)])
        assert excinfo.value.code == 2
        assert "argument --policy: not allowed with argument --cv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--method", "mb-m1"), ("--folds", "3"), ("--repeats", "7"), ("--depth", "1"),
    ])
    def test_learner_flag_without_cv_is_a_usage_error(self, eval_csv, tmp_path, capsys, flag,
                                                      value):
        # only --cv reads the learner flags: a policy evaluation would drop them unrecorded
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", str(eval_csv), flag, value, "--out", str(out)])
        assert code == 2
        assert f"argument {flag}: only allowed with argument --cv" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_failures_are_written_per_fold(self, eval_csv, tmp_path, capsys):
        # four treated units: every training fold has fewer than mb-m5's five matches
        header, *rows = eval_csv.read_text().splitlines()
        rows = [("0" + row[1:]) if k >= 8 else row for k, row in enumerate(rows)]
        eval_csv.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "cv"
        code = main([
            "evaluate", "--data", str(eval_csv), "--cv", "--repeats", "1",
            "--method", "mb-m5", "--out", str(out),
        ])
        assert code == 1
        assert "cv_failures.csv" in capsys.readouterr().err
        with open(out / "cv_failures.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["failure"]
        assert len(rows) == 1 + 5  # one row per fold of the failed repeat
        for k, (failure,) in enumerate(rows[1:]):
            assert failure.startswith(f"repeat 0 fold {k}: ")
            assert "each arm needs >= m=5 units" in failure
        assert "cv_failures.csv" in (out / "outputs.sha256").read_text()


class TestPolicyFileSpelling:
    def test_two_spellings_of_one_file_give_one_result(self, eval_csv, tmp_path, monkeypatch):
        assert main(["learn", "--data", str(eval_csv), "--m", "1", "--correction", "none",
                     "--depth", "1", "--out", str(tmp_path / "fit")]) == 0
        monkeypatch.chdir(tmp_path)
        policy = tmp_path / "fit" / "policy.txt"
        for spelling, out in ((str(policy), "by-absolute"), ("fit/policy.txt", "by-relative")):
            assert main(["evaluate", "--data", str(eval_csv), "--policy", spelling,
                         "--out", out]) == 0
        absolute, relative = tmp_path / "by-absolute", tmp_path / "by-relative"
        checksums = [(out / "outputs.sha256").read_bytes() for out in (absolute, relative)]
        assert checksums[0] == checksums[1]
        payload = json.loads((relative / "evaluation.json").read_text())
        manifest = json.loads((relative / "manifest.json").read_text())
        assert payload["policy"] == f"sha256:{sha256(policy)}"
        assert manifest["inputs"]["policy"] == {"path": "fit/policy.txt", "sha256": sha256(policy)}


def data_manifest(eval_csv, command, excluded=(), **parameters):
    """The manifest of a data command on eval_csv with default data flags."""
    return {
        "command": command,
        "parameters": {
            "treatment_col": "treat", "outcome_col": "re78", "covariates": ["a", "b"],
            "excluded_from_policy": list(excluded), **parameters,
        },
        "inputs": {"data": {"path": str(eval_csv), "sha256": sha256(eval_csv)}},
    }


class TestWholeManifest:
    """Each command's manifest.json, every parameter and input."""

    def run(self, argv, out):
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_simulate(self, tmp_path):
        out = tmp_path / "run"
        assert main(simulate_args(out)) == 0
        assert json.loads((out / "manifest.json").read_text()) == {
            "command": "simulate",
            "parameters": {
                "scenario": 1, "main": "linear", "contrast": "tree", "n": 80, "methods": ["mb-m1"],
                "reps": 2, "seed": 0, "test_n": 400, "depth": 2, "threads": 1,
            },
            "inputs": {},
        }

    @pytest.mark.slow
    def test_replicate(self, tmp_path):
        argv = ["replicate", "--budget", "smoke", "--seed", "2", "--test-n", "300"]
        assert self.run(argv, tmp_path / "rep") == {
            "command": "replicate",
            "parameters": {
                "budget": "smoke", "seed": 2, "test_n": 300, "threads": 1, "scenarios": [1],
                "mains": ["linear"], "contrasts": ["tree"], "sizes": [200],
                "methods": ["mb-m5", "mb-lasso-m5"], "reps": 3,
            },
            "inputs": {},
        }

    def test_learn(self, eval_csv, tmp_path):
        argv = ["learn", "--data", str(eval_csv), "--m", "1", "--correction", "none",
                "--depth", "1", "--exclude", "a"]
        assert self.run(argv, tmp_path / "fit") == data_manifest(
            eval_csv, "learn", ["a"], m=1, correction="none", depth=1, lasso_folds=5, seed=0,
        )

    def test_evaluate_policy_file(self, eval_csv, tmp_path):
        self.run(["learn", "--data", str(eval_csv), "--m", "1", "--correction", "none",
                  "--depth", "1"], tmp_path / "fit")
        policy = tmp_path / "fit" / "policy.json"
        argv = ["evaluate", "--data", str(eval_csv), "--policy", str(policy),
                "--propensity", "linear"]
        expected = data_manifest(
            eval_csv, "evaluate", propensity="linear", seed=0, cv=False, policy=str(policy),
        )
        expected["inputs"]["policy"] = {"path": str(policy), "sha256": sha256(policy)}
        assert self.run(argv, tmp_path / "eval") == expected

    def test_evaluate_cv(self, eval_csv, tmp_path):
        argv = ["evaluate", "--data", str(eval_csv), "--cv", "--method", "mb-m1", "--folds", "4",
                "--repeats", "1", "--seed", "3", "--exclude", "b"]
        assert self.run(argv, tmp_path / "cv") == data_manifest(
            eval_csv, "evaluate", ["b"], propensity="proportions", seed=3, cv=True,
            method="mb-m1", folds=4, repeats=1, depth=2,
        )

    def test_balance(self, eval_csv, tmp_path):
        argv = ["balance", "--data", str(eval_csv), "--covariates", "b,a"]
        expected = data_manifest(eval_csv, "balance")
        expected["parameters"]["covariates"] = ["b", "a"]
        assert self.run(argv, tmp_path / "bal") == expected


def reject_constant(name):
    raise ValueError(f"not standard JSON: {name}")


class TestStandardJson:
    """evaluation.json holds null, never a bare NaN, where a CV mean or sd is undefined."""

    def test_one_repeat_has_a_null_sd(self, eval_csv, tmp_path):
        out = tmp_path / "cv"
        assert main(["evaluate", "--data", str(eval_csv), "--cv", "--method", "mb-m1",
                     "--repeats", "1", "--out", str(out)]) == 0
        payload = json.loads((out / "evaluation.json").read_text(), parse_constant=reject_constant)
        assert np.isfinite(payload["cv_mean"]) and payload["cv_std"] is None

    def test_all_failed_repeats_have_a_null_mean_and_sd(self, eval_csv, tmp_path):
        # four treated units: every training fold has fewer than mb-m5's five matches
        header, *rows = eval_csv.read_text().splitlines()
        rows = [("0" + row[1:]) if k >= 8 else row for k, row in enumerate(rows)]
        eval_csv.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "cv"
        assert main(["evaluate", "--data", str(eval_csv), "--cv", "--method", "mb-m5",
                     "--repeats", "1", "--out", str(out)]) == 1
        payload = json.loads((out / "evaluation.json").read_text(), parse_constant=reject_constant)
        assert payload["cv_mean"] is None and payload["cv_std"] is None
        assert payload["failed_repeats"] == 1


class TestUndefinedOnStdout:
    """The printed CV mean and sd say undefined where evaluation.json writes null."""

    def test_one_repeat_prints_an_undefined_sd(self, eval_csv, tmp_path, capsys):
        assert main(["evaluate", "--data", str(eval_csv), "--cv", "--method", "mb-m1",
                     "--repeats", "1", "--out", str(tmp_path / "cv")]) == 0
        out = capsys.readouterr().out
        assert "(sd undefined)" in out and "nan" not in out.lower()
        assert "mean undefined" not in out

    def test_all_failed_repeats_print_an_undefined_mean(self, eval_csv, tmp_path, capsys):
        # four treated units: every training fold has fewer than mb-m5's five matches
        header, *rows = eval_csv.read_text().splitlines()
        rows = [("0" + row[1:]) if k >= 8 else row for k, row in enumerate(rows)]
        eval_csv.write_text("\n".join([header, *rows]) + "\n")
        assert main(["evaluate", "--data", str(eval_csv), "--cv", "--method", "mb-m5",
                     "--repeats", "1", "--out", str(tmp_path / "cv")]) == 1
        out = capsys.readouterr().out
        assert "mean undefined (sd undefined)" in out and "nan" not in out.lower()


@pytest.mark.parametrize("command", [
    ["evaluate", "--cv", "--method", "mb-m1", "--repeats", "1", "--seed", "8"],
    ["evaluate"],
    ["balance"],
], ids=["evaluate-cv", "evaluate", "balance"])
def test_manifest_records_exclusions(eval_csv, tmp_path, command):
    parameters = {}
    for exclude in ([], ["--exclude", "a"]):
        out = tmp_path / f"run{len(exclude)}"
        assert main([*command, "--data", str(eval_csv), *exclude, "--out", str(out)]) == 0
        parameters[len(exclude)] = json.loads((out / "manifest.json").read_text())["parameters"]
    plain, excluded = parameters[0], parameters[2]
    assert plain.pop("excluded_from_policy") == []
    assert excluded.pop("excluded_from_policy") == ["a"]
    assert plain == excluded


# README's output table: the files outputs.sha256 covers, and the other files
@pytest.mark.parametrize("command,covered,others", [
    (["simulate"], ["results.csv", "summary.csv"], ["timings.csv"]),
    (["learn", "--correction", "none", "--m", "1"], ["policy.txt", "policy.json", "gamma.csv"], []),
    (["evaluate"], ["evaluation.json"], []),
    (["evaluate", "--cv", "--method", "mb-m1", "--repeats", "1"],
     ["evaluation.json", "cv_values.csv", "cv_failures.csv"], []),
    (["balance"], ["balance.csv"], []),
], ids=["simulate", "learn", "evaluate", "evaluate-cv", "balance"])
def test_output_files_match_the_readme_table(eval_csv, tmp_path, command, covered, others):
    out = tmp_path / "out"
    if command == ["simulate"]:
        args = simulate_args(out)
    else:
        args = [*command, "--data", str(eval_csv), "--out", str(out)]
    assert main(args) == 0
    lines = (out / "outputs.sha256").read_text().splitlines()
    assert [line.split("  ")[1] for line in lines] == covered
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted(["manifest.json", "outputs.sha256", *covered, *others])


@pytest.mark.parametrize("command", [["learn"], ["evaluate", "--cv", "--method", "mb-m1"]])
def test_negative_seed_is_a_usage_error(eval_csv, tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--data", str(eval_csv), "--seed", "-1", "--out", str(out)])
    assert excinfo.value.code == 2
    assert "--seed: must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


class TestBalance:
    def test_balance_table(self, eval_csv, tmp_path, capsys):
        out = tmp_path / "bal"
        assert main(["balance", "--data", str(eval_csv), "--out", str(out)]) == 0
        lines = (out / "balance.csv").read_text().strip().splitlines()
        assert lines[0].startswith("feature")
        assert len(lines) == 3  # header + covariates a, b
        console = capsys.readouterr().out
        assert "normalized difference" in console
        assert "(control n=10, treated n=10)" in console


class TestSpacedHeader:
    """Header names are stripped, so a space after a comma names the same column."""

    @pytest.mark.parametrize("command,outputs", [
        (["balance"], ["balance.csv"]),
        (["learn", "--correction", "none"], ["policy.txt", "policy.json", "gamma.csv"]),
    ], ids=["balance", "learn"])
    def test_default_covariates_match_explicit_ones(self, eval_csv, tmp_path, command, outputs):
        header, *rows = eval_csv.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([header.replace(",", ", "), *rows]) + "\n")
        implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
        assert main([*command, "--data", str(spaced), "--out", str(implicit)]) == 0
        assert main([
            *command, "--data", str(eval_csv), "--covariates", "a,b", "--out", str(explicit)
        ]) == 0
        for name in [*outputs, "outputs.sha256"]:
            assert (implicit / name).read_bytes() == (explicit / name).read_bytes(), name


class TestByteOrderMark:
    def test_bom_prefixed_file_reads_like_the_plain_one(self, eval_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + eval_csv.read_bytes())
        schema = CsvSchema(treatment="treat", outcome="re78", covariates=("a", "b"))
        plain_data, bom_data = load_csv(eval_csv, schema), load_csv(bom, schema)
        assert bom_data.feature_names == plain_data.feature_names
        for name in ("x", "w", "y"):
            assert getattr(bom_data, name).tobytes() == getattr(plain_data, name).tobytes()
        plain, prefixed = tmp_path / "plain", tmp_path / "prefixed"
        assert main(["balance", "--data", str(eval_csv), "--out", str(plain)]) == 0
        assert main(["balance", "--data", str(bom), "--out", str(prefixed)]) == 0
        assert (prefixed / "balance.csv").read_bytes() == (plain / "balance.csv").read_bytes()


class TestOutputDirEnv:
    def test_env_var_sets_default_out_dir(self, learn_csv, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("MBPOLICY_OUT", str(target))
        code = main([
            "learn", "--data", str(learn_csv), "--treatment-col", "w",
            "--outcome-col", "y", "--m", "1", "--correction", "none",
        ])
        assert code == 0
        assert (target / "policy.txt").exists()


@pytest.mark.slow
class TestReplicate:
    def test_smoke_budget(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["replicate", "--budget", "smoke", "--test-n", "300",
                     "--out", str(out)])
        assert code == 0
        assert "replicate rows written" in capsys.readouterr().out
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # two methods x three replications


class TestPolicyFeatureNames:
    """A policy file's split features must name the same data columns."""

    @pytest.mark.parametrize("suffix", ["json", "txt"])
    def test_swapped_covariates_are_rejected(self, eval_csv, tmp_path, capsys, suffix):
        fit = tmp_path / "fit"
        assert main(["learn", "--data", str(eval_csv), "--covariates", "a,b", "--m", "1",
                     "--correction", "none", "--depth", "1", "--out", str(fit)]) == 0
        j = int(TreePolicy.from_json((fit / "policy.json").read_text()).features[0])
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", str(eval_csv), "--covariates", "b,a",
                     "--policy", str(fit / f"policy.{suffix}"), "--out", str(out)])
        assert code == 1
        named, actual = ("a", "b") if j == 0 else ("b", "a")
        assert (
            f"policy splits on feature {j} named {named!r}, "
            f"but column {j} of the data is {actual!r}"
        ) in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()


class TestRepeatedHeader:
    def test_repeated_column_is_a_runtime_error(self, eval_csv, tmp_path, capsys):
        header, *rows = eval_csv.read_text().splitlines()
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("\n".join([header + ",a", *(row + ",0" for row in rows)]) + "\n")
        code = main(["balance", "--data", str(repeated), "--covariates", "a",
                     "--out", str(tmp_path / "bal")])
        assert code == 1
        assert "header repeats column(s) ['a']" in capsys.readouterr().err


MALFORMED_CSVS = {
    "invalid-utf8": b"treat,re78,a\n1,5.0,0\n\xff0,4.0,1\n",
    "non-numeric": b"treat,re78,a\n1,5.0,0\n0,oops,1\n",
    "field-count": b"treat,re78,a\n1,5.0,0\n0,4.0\n",
    "non-finite": b"treat,re78,a\n1,5.0,0\n0,4.0,1e309\n",
    "treatment-2": b"treat,re78,a\n1,5.0,0\n2,4.0,1\n",
}


class TestMalformedCsv:
    """A malformed data file is one error line naming it, and no output file."""

    @pytest.mark.parametrize("malformed", sorted(MALFORMED_CSVS))
    @pytest.mark.parametrize("command", [
        ["learn"], ["evaluate"], ["evaluate", "--cv"], ["balance"],
    ], ids=["learn", "evaluate", "evaluate-cv", "balance"])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, command, malformed):
        path = tmp_path / "bad.csv"
        path.write_bytes(MALFORMED_CSVS[malformed])
        out = tmp_path / "out"
        assert main([*command, "--data", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
        assert not out.exists() or not any(out.iterdir())


class TestPolicyFileErrors:
    """Reading or parsing a policy file fails with an error that names the file."""

    @pytest.mark.parametrize("name,content,detail", [
        ("p.txt", b"policy depth=1\neligible: 0\n\xff", "line 3: not valid UTF-8"),
        ("p.json", b'{"depth": 1, ', "Expecting property name"),
        ("p.txt", b"policy depth=1\neligible: 0\nif x[0] <= 1.0\n", "line 3: expected split"),
    ], ids=["invalid-utf8", "bad-json", "bad-text-line"])
    def test_error_names_the_policy_file(self, eval_csv, tmp_path, capsys, name, content, detail):
        policy = tmp_path / name
        policy.write_bytes(content)
        code = main(["evaluate", "--data", str(eval_csv), "--policy", str(policy),
                     "--out", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {policy}: ") and detail in err, err


class TestOversizeField:
    @pytest.mark.parametrize("command", [["learn"], ["balance"]], ids=["learn", "balance"])
    def test_exits_1_naming_file_and_line(self, tmp_path, capsys, command):
        path = tmp_path / "big.csv"
        path.write_bytes(b"treat,re78,a\n1,5.0,0\n0,4.0," + b"1" * 200_000 + b"\n")
        out = tmp_path / "out"
        assert main([*command, "--data", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {path}: line 3: field larger than field limit (131072)"]
        assert not out.exists() or not any(out.iterdir())


def evaluate_policy_file(eval_csv, policy, out, *flags):
    """evaluate --policy on eval_csv; the exit code and evaluation.json (None if not written)."""
    code = main(["evaluate", "--data", str(eval_csv), "--policy", str(policy),
                 "--out", str(out), *flags])
    written = out / "evaluation.json"
    return code, json.loads(written.read_text()) if written.exists() else None


class TestPolicyFileForms:
    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_bom_prefixed_policy_reads_as_without(self, eval_csv, tmp_path, suffix):
        tree = TreePolicy(
            depth=1, features=np.array([1]), thresholds=np.array([0.25]),
            leaf_actions=np.array([0, 1]), eligible_features=(0, 1), feature_names=("a", "b"),
        )
        text = tree.to_text() if suffix == "txt" else tree.to_json()
        plain, bom = tmp_path / f"plain.{suffix}", tmp_path / f"bom.{suffix}"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code_plain, plain_json = evaluate_policy_file(eval_csv, plain, tmp_path / "a")
        code_bom, bom_json = evaluate_policy_file(eval_csv, bom, tmp_path / "b")
        assert code_plain == code_bom == 0
        assert plain_json["value"] == bom_json["value"]
        assert plain_json["n_treated_by_policy"] == bom_json["n_treated_by_policy"]

    @pytest.mark.parametrize("suffix", ["txt", "json"])
    def test_split_feature_past_the_data_names_the_file(self, eval_csv, tmp_path, capsys, suffix):
        tree = TreePolicy(
            depth=1, features=np.array([7]), thresholds=np.array([0.0]),
            leaf_actions=np.array([0, 1]), eligible_features=(0, 7),
        )
        policy = tmp_path / f"wide.{suffix}"
        policy.write_text(tree.to_text() if suffix == "txt" else tree.to_json())
        out = tmp_path / "out"
        code, _ = evaluate_policy_file(eval_csv, policy, out, "--covariates", "a")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {policy}: policy splits on feature 7, but the data has 1 covariate(s)"
        ]
        assert not out.exists() or not any(out.iterdir())  # no manifest either


DATA_NAMES = ("a", "b")  # eval_csv's covariates, in column order
JSON_KEYS = ("depth", "features", "thresholds", "leaf_actions", "eligible_features",
             "feature_names")
BAD_BYTES = (b"\xff", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80")


@st.composite
def policy_files(draw):
    """(bytes, suffix, line holding an invalid UTF-8 byte or None) of a corrupted policy file.

    The tree may split on a feature past eval_csv's two covariates; then the
    file is well formed but does not fit the data.
    """
    depth = draw(st.integers(1, 2))
    p = draw(st.integers(2, 3))
    eligible = sorted(draw(st.sets(st.integers(0, p - 1), min_size=1)))
    n_internal = 2**depth - 1
    tree = TreePolicy(
        depth=depth,
        features=np.array(draw(st.lists(st.sampled_from(eligible), min_size=n_internal,
                                        max_size=n_internal))),
        thresholds=np.array(draw(st.lists(
            st.one_of(st.floats(-3.0, 3.0), st.sampled_from([np.inf, -np.inf])),
            min_size=n_internal, max_size=n_internal,
        ))),
        leaf_actions=np.array(draw(st.lists(st.integers(0, 1), min_size=n_internal + 1,
                                            max_size=n_internal + 1))),
        eligible_features=tuple(eligible),
        feature_names=draw(st.sampled_from([None, ("a", "b", "c")[:p]])),
    )
    suffix = draw(st.sampled_from(["txt", "json"]))
    kinds = ["none", "truncate", "drop_line", "duplicate_line", "bad_threshold",
             "feature_out_of_range", "invalid_utf8"]
    if suffix == "json":
        kinds += ["json_bool", "json_missing_key"]
    kind = draw(st.sampled_from(kinds))
    node = draw(st.integers(0, n_internal - 1))
    big = draw(st.sampled_from([2, 3, 7, 10**18 - 1]))  # past eval_csv's columns
    if suffix == "json":
        payload = json.loads(tree.to_json())
        if kind == "bad_threshold":
            payload["thresholds"][node] = draw(st.sampled_from(["abc", "nan", float("nan")]))
        elif kind == "feature_out_of_range":
            payload["features"][node] = big
        elif kind == "json_bool":
            key = draw(st.sampled_from(["depth", "features", "leaf_actions", "eligible_features"]))
            if key == "depth":
                payload[key] = draw(st.booleans())
            else:
                payload[key][0] = draw(st.booleans())
        elif kind == "json_missing_key":
            del payload[draw(st.sampled_from(JSON_KEYS))]
        text = json.dumps(payload, indent=2)
    else:
        text = tree.to_text()
        splits = [k for k, line in enumerate(text.splitlines()) if line.lstrip().startswith("if ")]
        lines = text.splitlines()
        k = splits[node]
        if kind == "bad_threshold":
            head = lines[k].rsplit(" <= ", 1)[0]
            lines[k] = f"{head} <= {draw(st.sampled_from(['abc', 'nan', 'NaN', '-nan']))}:"
        elif kind == "feature_out_of_range":
            lines[k] = re.sub(r"x\[\d+\]", f"x[{big}]", lines[k], count=1)
        text = "\n".join(lines) + "\n"
    lines = text.encode().split(b"\n")
    line = draw(st.integers(0, len(lines) - 1))
    bad_line = None
    if kind == "truncate":
        return text.encode()[: draw(st.integers(0, len(text) - 1))], suffix, None
    if kind == "drop_line":
        del lines[line]
    elif kind == "duplicate_line":
        lines.insert(line, lines[line])
    elif kind == "invalid_utf8":
        at = draw(st.integers(0, len(lines[line])))
        lines[line] = lines[line][:at] + draw(st.sampled_from(BAD_BYTES)) + lines[line][at:]
        bad_line = line + 1
    return b"\n".join(lines), suffix, bad_line


def names_where(message, suffix):
    """Whether a parse error names a line (text form, or any JSON syntax error) or a JSON key."""
    if re.search(r"\bline \d+\b", message):
        return True
    return suffix == "json" and any(re.search(rf"\b{key}\b", message) for key in JSON_KEYS)


class TestPolicyFileBoundary:
    """evaluate --policy runs exactly the tree the file parses to, or fails naming where."""

    @settings(
        deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(policy_files())
    def test_evaluates_the_parsed_tree_or_names_the_fault(self, eval_csv, capsys, case):
        raw, suffix, bad_line = case
        with tempfile.TemporaryDirectory() as work:
            policy, out = Path(work) / f"policy.{suffix}", Path(work) / "out"
            policy.write_bytes(raw)
            capsys.readouterr()
            code, written = evaluate_policy_file(eval_csv, policy, out)
            err = capsys.readouterr().err
            left = sorted(path.name for path in out.iterdir()) if out.exists() else []
        parse = TreePolicy.from_json if suffix == "json" else TreePolicy.from_text
        try:
            tree = parse(raw.decode("utf-8"))  # no case adds a BOM
            problem = None
        except UnicodeDecodeError:
            problem = f"line {bad_line}: not valid UTF-8 ("
        except ValueError as exc:
            problem = str(exc)
            assert names_where(problem, suffix), problem
        if problem is None:
            used = sorted(set(tree.features.tolist()))
            fits = used[-1] < len(DATA_NAMES) and (
                tree.feature_names is None
                or all(tree.feature_names[j] == DATA_NAMES[j] for j in used)
            )
            if not fits:
                problem = "policy splits on feature "
        if problem is not None:
            assert code == 1 and written is None and left == []
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {policy}: {problem}"), lines
            return
        assert code == 0, err
        data = load_csv(eval_csv, CsvSchema("treat", "re78", ()))
        assignments = evaluate_policy(tree, data.x)
        expected = aipw_value_estimate(
            data, assignments, arm_proportion_propensity(data), fit_ols_per_arm(data, "quadratic")
        )
        assert written["value"] == expected
        assert written["n_treated_by_policy"] == int(assignments.sum())
