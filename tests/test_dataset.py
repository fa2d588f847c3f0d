import re

import numpy as np
import pytest

from mbpolicy import (
    CsvSchema,
    LearnConfig,
    ObservationalDataset,
    SimulationSpec,
    TreePolicy,
    constant_policy,
    cross_validate,
    fit_lasso_per_arm,
    fit_mahalanobis,
    fit_ols_per_arm,
    load_csv,
    match_units,
    normalized_differences,
    philox_rng,
    predict_matrix,
    run_experiment,
    search_tree,
    true_advantage,
)
from mbpolicy import dataset


def make_data(x, w, y, names=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and len(w) > 1:
        x = x.T
    names = names or tuple(f"f{j}" for j in range(x.shape[1]))
    return ObservationalDataset(x=x, w=np.asarray(w), y=np.asarray(y, dtype=float), feature_names=names)


SCHEMA = CsvSchema(treatment="w", outcome="y", covariates=("a", "b"))


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_four_row_parse(self, tmp_path):
        path = write_csv(tmp_path, "w,y,a,b\n1,5.0,0,10\n0,4.0,1,11\n1,3.0,2,12\n0,2.0,3,13\n")
        data = load_csv(path, SCHEMA)
        assert data.n == 4
        assert data.n_treated == 2
        assert data.n_control == 2
        assert data.feature_names == ("a", "b")
        np.testing.assert_array_equal(data.w, [1, 0, 1, 0])
        np.testing.assert_array_equal(data.y, [5.0, 4.0, 3.0, 2.0])
        np.testing.assert_array_equal(data.x, [[0, 10], [1, 11], [2, 12], [3, 13]])

    def test_column_order_does_not_matter(self, tmp_path):
        path = write_csv(tmp_path, "b,y,w,a\n10,5.0,1,0\n11,4.0,0,1\n")
        data = load_csv(path, SCHEMA)
        np.testing.assert_array_equal(data.x, [[0, 10], [1, 11]])

    def test_nonbinary_treatment_names_row(self, tmp_path):
        path = write_csv(tmp_path, "w,y,a,b\n1,5.0,0,10\n2,4.0,1,11\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path, SCHEMA)

    def test_nonnumeric_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "w,y,a,b\n1,5.0,0,10\n0,oops,1,11\n")
        with pytest.raises(ValueError, match="row 2.*'y'"):
            load_csv(path, SCHEMA)

    @pytest.mark.parametrize("cell,row,column", [("nan", 2, "y"), ("-Infinity", 1, "b")])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, row, column):
        rows = [["1", "5.0", "0", "10"], ["0", "4.0", "1", "11"]]
        rows[row - 1][1 if column == "y" else 3] = cell
        path = write_csv(tmp_path, "w,y,a,b\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(
            ValueError, match=rf"row {row}, column '{column}': non-finite value '{cell}'"
        ):
            load_csv(path, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", SCHEMA)

    def test_missing_column_named(self, tmp_path):
        path = write_csv(tmp_path, "w,y,a\n1,5.0,0\n0,4.0,1\n")
        with pytest.raises(ValueError, match="'b'"):
            load_csv(path, SCHEMA)

    def test_repeated_header_name_rejected(self, tmp_path):
        # a stripped " a" repeats "a"; neither copy may be loaded silently
        path = write_csv(tmp_path, "w,y,a,b, a\n1,5.0,0,10,7\n0,4.0,1,11,8\n")
        with pytest.raises(ValueError, match=r"header repeats column\(s\) \['a'\]"):
            load_csv(path, SCHEMA)

    def test_schema_rejects_duplicate_roles(self):
        with pytest.raises(ValueError, match="multiple roles"):
            CsvSchema(treatment="w", outcome="w", covariates=("a",))


class TestDatasetInvariants:
    def test_too_few_units(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_data([[0.0]], [1], [1.0])

    def test_nonfinite_covariate_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_data([[0.0], [np.nan]], [0, 1], [1.0, 2.0])

    def test_nonbinary_treatment_rejected(self):
        with pytest.raises(ValueError, match="unit 1"):
            make_data([[0.0], [1.0]], [0, 2], [1.0, 2.0])

    def test_arrays_are_read_only(self):
        data = make_data([[0.0], [1.0]], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            data.x[0, 0] = 99.0

    def test_subset_preserves_metadata(self):
        data = make_data([[0.0, 1], [1.0, 2], [2.0, 3], [3.0, 4]], [0, 1, 0, 1], [1, 2, 3, 4])
        data = data.excluding_from_policy(["f1"])
        sub = data.subset(np.array([2, 3]))
        assert sub.n == 2
        np.testing.assert_array_equal(sub.y, [3.0, 4.0])
        assert sub.eligible_features == (0,)

    def test_excluding_unknown_name(self):
        data = make_data([[0.0], [1.0]], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="unknown feature"):
            data.excluding_from_policy(["zzz"])

    def test_excluding_everything_rejected(self):
        data = make_data([[0.0], [1.0]], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="no policy-eligible"):
            data.excluding_from_policy(["f0"])


class TestNormalizedDifferences:
    def test_hand_computed_value(self):
        # arm 0 holds (0, 2), arm 1 holds (1, 3): means 1 and 2, variances both 2
        data = make_data([0.0, 2.0, 1.0, 3.0], [0, 0, 1, 1], [0, 0, 0, 0])
        report = normalized_differences(data)
        assert report.normalized_diffs[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert report.n_control == 2
        assert report.n_treated == 2

    def test_identical_arms_give_zeros(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        data = ObservationalDataset(
            x=np.vstack([rows, rows]),
            w=np.array([0, 0, 0, 1, 1, 1]),
            y=np.zeros(6),
            feature_names=("a", "b"),
        )
        report = normalized_differences(data)
        assert report.normalized_diffs == (0.0, 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 3))
        w = np.array([0, 1] * 15)
        y = rng.normal(size=30)
        data = make_data(x, w, y)
        perm = rng.permutation(30)
        shuffled = make_data(x[perm], w[perm], y[perm])
        np.testing.assert_allclose(
            normalized_differences(data).normalized_diffs,
            normalized_differences(shuffled).normalized_diffs,
            atol=1e-12,
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(24, 2))
        w = rng.integers(0, 2, size=24)
        w[:2], w[-2:] = 0, 1
        data = make_data(x, w, np.zeros(24))
        scaled = make_data(x * np.array([7.5, 0.003]), w, np.zeros(24))
        np.testing.assert_allclose(
            normalized_differences(data).normalized_diffs,
            normalized_differences(scaled).normalized_diffs,
            rtol=1e-10,
        )

    def test_small_arm_rejected(self):
        data = make_data([0.0, 1.0, 2.0], [0, 0, 1], np.zeros(3))
        with pytest.raises(ValueError, match="each arm needs >= 2"):
            normalized_differences(data)

    def test_zero_pooled_variance_names_feature(self):
        data = make_data(
            [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], [0, 0, 1, 1], np.zeros(4)
        )
        with pytest.raises(ValueError, match="f0"):
            normalized_differences(data)

    def test_report_csv_round_trip(self, tmp_path):
        data = make_data([0.0, 2.0, 1.0, 3.0], [0, 0, 1, 1], np.zeros(4))
        report = normalized_differences(data)
        out = tmp_path / "balance.csv"
        report.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "feature,normalized_difference"
        name, value = lines[1].split(",")
        assert name == "f0"
        assert float(value) == report.normalized_diffs[0]


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        dataset.write_csv(path, ("label", "value"), [
            ("nan", float("nan")),
            ("inf", float("inf")),
            ("negative zero", -0.0),
            ("tenth", 0.1),
            ("huge", 1e300),
            ("numpy float", np.float64(0.1)),
            ("numpy int", np.int64(7)),
            ('a, "quoted"\nname', 2),
        ])
        assert path.read_bytes() == (
            b"label,value\r\n"
            b"nan,nan\r\n"
            b"inf,inf\r\n"
            b"negative zero,-0.0\r\n"
            b"tenth,0.1\r\n"
            b"huge,1e+300\r\n"
            b"numpy float,0.1\r\n"
            b"numpy int,7\r\n"
            b'"a, ""quoted""\nname",2\r\n'
        )


# Fixtures of the parameter-rule table: every call below fails on its checked
# parameter before any fitting, search or draw starts.
RULE_DATA = make_data(
    np.random.default_rng(5).normal(size=(8, 2)), [0, 1] * 4, np.arange(8.0)
)
RULE_GAMMA = np.linspace(-1.0, 1.0, 8)
RULE_SPEC = SimulationSpec(1, "linear", "tree", 50)


def rule_stump(**fields):
    tree = dict(depth=1, features=np.array([0]), thresholds=np.array([0.0]),
                leaf_actions=np.array([0, 1]), eligible_features=(0,))
    return TreePolicy(**{**tree, **fields})


# (parameter, call with the parameter set to a value, a value just below its bound)
PARAMETER_RULES = [
    ("m", lambda v: LearnConfig(m=v), 0),
    ("correction", lambda v: LearnConfig(correction=v), "boost"),
    ("depth", lambda v: LearnConfig(depth=v), 0),
    ("lasso_folds", lambda v: LearnConfig(lasso_folds=v), 1),
    ("seed", lambda v: LearnConfig(seed=v), -1),
    ("depth", lambda v: rule_stump(depth=v), 0),
    ("eligible_features", lambda v: rule_stump(eligible_features=(0, v)), -1),
    ("action", constant_policy, -1),
    ("depth", lambda v: search_tree(RULE_DATA.x, RULE_GAMMA, v), 0),
    ("eligible_features", lambda v: search_tree(RULE_DATA.x, RULE_GAMMA, 1, (v,)), -1),
    ("m", lambda v: match_units(RULE_DATA, fit_mahalanobis(RULE_DATA.x), v), 0),
    ("w", lambda v: predict_matrix(fit_ols_per_arm(RULE_DATA, "linear"), RULE_DATA.x, v), -1),
    ("folds", lambda v: fit_lasso_per_arm(RULE_DATA, folds=v), 1),
    ("folds", lambda v: cross_validate(RULE_DATA, constant_policy, folds=v), 1),
    ("repeats", lambda v: cross_validate(RULE_DATA, constant_policy, repeats=v), 0),
    ("propensity_scenario", lambda v: SimulationSpec(v, "linear", "tree", 50), 0),
    ("main_effect", lambda v: SimulationSpec(1, v, "tree", 50), "cubic"),
    ("contrast", lambda v: SimulationSpec(1, "linear", v, 50), "step"),
    ("n", lambda v: SimulationSpec(1, "linear", "tree", v), 0),
    ("seed", lambda v: SimulationSpec(1, "linear", "tree", 50, v), -1),
    ("mc_draws", lambda v: true_advantage(rule_stump(), RULE_SPEC, v, 0), 1),
    ("replications", lambda v: run_experiment([RULE_SPEC], ["mb-m1"], v), -1),
    ("threads", lambda v: run_experiment([RULE_SPEC], ["mb-m1"], 1, threads=v), 0),
    ("seed", philox_rng, -1),
]

# (parameter, call): the malformed inputs of the integer, choice, index and name rules
PARAMETER_PROBES = [
    ("m", lambda: LearnConfig(m=1.5)),
    ("depth", lambda: LearnConfig(depth=2.0)),
    ("propensity_scenario", lambda: SimulationSpec(1.0, "linear", "tree", 500)),
    ("n", lambda: SimulationSpec(1, "linear", "tree", n=500.0)),
    ("features", lambda: rule_stump(features=[0.5], leaf_actions=[0.7, 1.2])),
    ("leaf_actions", lambda: rule_stump(leaf_actions=[0.7, 1.2])),
    ("features", lambda: rule_stump(features=np.array([True]))),
    ("depth", lambda: search_tree(RULE_DATA.x, RULE_GAMMA, True)),
    ("eligible_features", lambda: search_tree(RULE_DATA.x, RULE_GAMMA, 1, (0.5,))),
    ("eligible_features", lambda: search_tree(RULE_DATA.x, RULE_GAMMA, 1, (2,))),
    ("eligible_features", lambda: rule_stump(eligible_features=())),
    ("eligible_features", lambda: ObservationalDataset(
        RULE_DATA.x, RULE_DATA.w, RULE_DATA.y, ("a", "b"), ())),
    ("eligible_features", lambda: ObservationalDataset(
        RULE_DATA.x, RULE_DATA.w, RULE_DATA.y, ("a", "b"), (0, 2))),
    ("feature_names", lambda: ObservationalDataset(RULE_DATA.x, RULE_DATA.w, RULE_DATA.y, "ab")),
    ("feature_names", lambda: ObservationalDataset(
        RULE_DATA.x, RULE_DATA.w, RULE_DATA.y, ("a", 2))),
    ("covariates", lambda: CsvSchema(treatment="w", outcome="y", covariates="ab")),
    ("covariates", lambda: CsvSchema(treatment="w", outcome="y", covariates=["a", 1])),
    ("feature_names", lambda: rule_stump(feature_names=[1])),
    ("feature_names", lambda: rule_stump(feature_names="a")),
    ("seed", lambda: run_experiment([RULE_SPEC], ["mb-m1"], 1, seed=1.0)),
    ("seed", lambda: run_experiment([RULE_SPEC], ["mb-m1"], 1, seed=True)),
    ("seed", lambda: cross_validate(RULE_DATA, constant_policy, seed=1.0)),
    ("seed", lambda: cross_validate(RULE_DATA, constant_policy, seed=True)),
    ("eligible_features", lambda: search_tree(RULE_DATA.x, RULE_GAMMA, 1, 3)),
    ("eligible_features", lambda: rule_stump(eligible_features=3)),
    ("eligible_features", lambda: ObservationalDataset(
        RULE_DATA.x, RULE_DATA.w, RULE_DATA.y, ("a", "b"), eligible_features=3)),
]


class TestParameterRules:
    @pytest.mark.parametrize("kind", ["bool", "float", "numpy-float", "below"])
    @pytest.mark.parametrize(
        "parameter, call, below", PARAMETER_RULES,
        ids=[f"{k}-{rule[0]}" for k, rule in enumerate(PARAMETER_RULES)],
    )
    def test_malformed_value_names_the_parameter(self, parameter, call, below, kind):
        value = {"bool": True, "float": 1.5, "numpy-float": np.float64(2.0), "below": below}[kind]
        with pytest.raises(ValueError, match=f"^{re.escape(parameter)} must "):
            call(value)

    @pytest.mark.parametrize(
        "parameter, call", PARAMETER_PROBES,
        ids=[f"{k}-{probe[0]}" for k, probe in enumerate(PARAMETER_PROBES)],
    )
    def test_probe_names_the_parameter(self, parameter, call):
        with pytest.raises(ValueError, match=f"^{re.escape(parameter)} "):
            call()

    def test_numpy_integers_are_stored_as_int(self):
        spec = SimulationSpec(np.int64(1), "linear", "tree", np.int64(500))
        assert spec.key() == "s1-linear-tree-n500"
        assert type(spec.propensity_scenario) is int and type(spec.n) is int
        config = LearnConfig(m=np.int32(3), depth=np.int64(1))
        assert type(config.m) is int and type(config.depth) is int
        tree = rule_stump(depth=np.int64(1), eligible_features=(np.int64(1), 0, 1))
        assert type(tree.depth) is int and tree.eligible_features == (0, 1)
        assert all(type(j) is int for j in tree.eligible_features)
