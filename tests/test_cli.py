import csv
import hashlib
import json
from functools import partial

import numpy as np
import pytest

from mbpolicy import (
    CsvSchema,
    TreePolicy,
    aipw_value_estimate,
    arm_proportion_propensity,
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
