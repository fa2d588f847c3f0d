import dataclasses
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mbpolicy import (
    LearnConfig,
    ObservationalDataset,
    PolicyLearningError,
    TreePolicy,
    constant_policy,
    evaluate_policy,
    fit_mahalanobis,
    impute_raw,
    learn_policy,
    match_units,
    search_tree,
)
from mbpolicy import policytree

from _oracles import (
    masked_root_search,
    ordered_pair_root_scores,
    random_dataset,
    slow_tree_search,
    tree_objective,
)


def nsw_covariates():
    """The eight covariate columns of the benchmark's study-shaped file (seed 0)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "nsw_shaped.py"
    spec = importlib.util.spec_from_file_location("nsw_shaped", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate_rows(0)[:, 1:9]


def depth_two_problems():
    """The 210 (x, gamma, eligible) of TestDepthTwoPrefixSums' bitwise test:
    normal, rounded and study-shaped x; normal, large, integer and 0.1-step gamma."""
    rng = np.random.default_rng(69)
    nsw = nsw_covariates()
    for trial in range(210):
        n = int(rng.integers(1, 401))
        p = int(rng.integers(1, 5))
        if trial % 3 == 0:
            x = rng.normal(size=(n, p))
        elif trial % 3 == 1:
            x = np.round(rng.normal(size=(n, p)) * 2.0) / 2.0
        else:
            columns = rng.choice(nsw.shape[1], size=p, replace=False)
            x = nsw[rng.choice(nsw.shape[0], size=n, replace=False)][:, columns]
        kind = (trial // 3) % 4
        if kind == 0:
            gamma = rng.normal(size=n)
        elif kind == 1:
            gamma = 1e4 * rng.normal(size=n)
        elif kind == 2:
            gamma = rng.integers(-9, 10, size=n).astype(float)
        else:
            gamma = rng.choice([0.1, 0.2, 0.3], size=n) * rng.choice([-1.0, 1.0], size=n)
        eligible = None
        if trial % 5 == 4 and p > 1:
            eligible = tuple(rng.choice(p, size=p - 1, replace=False).tolist())
        yield x, gamma, eligible


def per_feature_rows(x, eligible=None):
    """The rows _root_scores reads: feature, sort order and candidates."""
    features = range(x.shape[1]) if eligible is None else sorted(eligible)
    return [
        (f, np.argsort(x[:, f], kind="stable"), None, None, policytree._split_candidates(x[:, f]))
        for f in features
    ]


def reject_constant(name):
    raise ValueError(f"not standard JSON: {name}")


def stump(feature, threshold, left, right, p=2):
    return TreePolicy(
        depth=1,
        features=np.array([feature]),
        thresholds=np.array([threshold], dtype=float),
        leaf_actions=np.array([left, right]),
        eligible_features=tuple(range(p)),
    )


class TestEvaluatePolicy:
    def test_single_split(self):
        tree = stump(0, 0.0, 0, 1, p=1)
        np.testing.assert_array_equal(
            evaluate_policy(tree, np.array([[-1.0], [1.0]])), [0, 1]
        )

    def test_constant_policy_is_all_ones(self):
        x = np.random.default_rng(61).normal(size=(7, 3))
        np.testing.assert_array_equal(evaluate_policy(constant_policy(1), x), np.ones(7))
        np.testing.assert_array_equal(evaluate_policy(constant_policy(0), x), np.zeros(7))

    def test_depth_two_quadrant_rule(self):
        # treat exactly when both leading covariates are positive
        tree = TreePolicy(
            depth=2,
            features=np.array([0, 0, 1]),
            thresholds=np.array([0.0, np.inf, 0.0]),
            leaf_actions=np.array([0, 0, 0, 1]),
            eligible_features=(0, 1),
        )
        x = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [0.0, 5.0]])
        np.testing.assert_array_equal(evaluate_policy(tree, x), [1, 0, 0, 0, 0])

    def test_boundary_goes_left(self):
        tree = stump(0, 1.5, 0, 1, p=1)
        np.testing.assert_array_equal(
            evaluate_policy(tree, np.array([[1.5], [1.5000001]])), [0, 1]
        )

    def test_feature_out_of_range(self):
        tree = stump(1, 0.0, 0, 1, p=2)
        with pytest.raises(ValueError, match="only 1 column"):
            evaluate_policy(tree, np.array([[1.0], [2.0]]))


class TestTreePolicyType:
    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth"):
            TreePolicy(
                depth=3,
                features=np.zeros(7, dtype=int),
                thresholds=np.zeros(7),
                leaf_actions=np.zeros(8, dtype=int),
                eligible_features=(0,),
            )

    def test_split_outside_eligible_rejected(self):
        with pytest.raises(ValueError, match="eligible"):
            TreePolicy(
                depth=1,
                features=np.array([2]),
                thresholds=np.array([0.0]),
                leaf_actions=np.array([0, 1]),
                eligible_features=(0, 1),
            )

    def test_text_round_trip(self):
        tree = TreePolicy(
            depth=2,
            features=np.array([1, 0, 1]),
            thresholds=np.array([0.25, -np.inf, 3.5]),
            leaf_actions=np.array([0, 1, 1, 0]),
            eligible_features=(0, 1),
            feature_names=("age", "income"),
        )
        text = tree.to_text()
        assert "if x[1] (income) <= 0.25:" in text
        assert TreePolicy.from_text(text) == tree

    def test_line_breaks_in_names_are_escaped_in_the_label(self):
        breaks = "".join(c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1)
        tree = dataclasses.replace(stump(0, 1.5, 1, 0, p=1), feature_names=(f"earn{breaks}ings",))
        text = tree.to_text()
        assert text.splitlines()[3] == (
            r"if x[0] (earn\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029ings) <= 1.5:"
        )
        assert TreePolicy.from_text(text) == tree

    def test_text_round_trip_without_names(self):
        tree = stump(0, 1.5, 1, 0)
        assert TreePolicy.from_text(tree.to_text()) == tree

    def test_json_round_trip_with_infinities(self):
        tree = TreePolicy(
            depth=2,
            features=np.array([0, 1, 0]),
            thresholds=np.array([np.inf, -np.inf, 0.125]),
            leaf_actions=np.array([1, 0, 0, 1]),
            eligible_features=(0, 1),
            feature_names=("a", "b"),
        )
        assert TreePolicy.from_json(tree.to_json()) == tree

    @pytest.mark.parametrize(
        "changes",
        [
            {"depth": 2, "features": [0, 1, 0], "thresholds": [1.5, 0.0, 0.0],
             "leaf_actions": [1, 0, 0, 1]},
            {"features": [1]},
            {"thresholds": [2.5]},
            {"leaf_actions": [0, 1]},
            {"eligible_features": (0,)},
            {"feature_names": ("a\x00", "b")},  # np.array_equal calls the names equal
            {"feature_names": None},
        ],
        ids=["depth", "features", "thresholds", "leaf_actions", "eligible_features",
             "nul-suffixed-name", "no-names"],
    )
    def test_trees_differing_in_one_field_are_unequal(self, changes):
        tree = dataclasses.replace(stump(0, 1.5, 1, 0), feature_names=("a", "b"))
        other = dataclasses.replace(tree, **changes)
        assert tree != other and other != tree
        assert tree == dataclasses.replace(tree)

    def test_threshold_precision_survives_text(self):
        value = 0.1 + 0.2  # not representable as a short decimal
        tree = stump(0, value, 0, 1)
        restored = TreePolicy.from_text(tree.to_text())
        assert restored.thresholds[0] == value

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: expected 'policy depth=D'"),
            ("policy depth=1\n", "line 2: expected 'eligible: '"),
            ("policy depth=1\neligible: 0, 1\nif x[0] <= 1.5:\n  action 1\n",
             "line 5: expected 'else:', got '<end of text>'"),
            ("policy depth=3\neligible: 0\n", "line 1: expected 'policy depth=D', D in 1..2"),
            ("policy depth=1\neligible: 0, a\n", "line 2: expected 'eligible: ' and indices"),
            ("policy depth=1\neligible: 0\nnames: null\n", "line 3: names must be a JSON list"),
            ("policy depth=1\neligible: 0\nif x[0] <= high:\n", "line 3: bad threshold"),
            ("policy depth=1\neligible: 0\n\nif x[0] <= 1.0:\n  action 1\nelse:\n  action 2\n",
             "line 7: expected leaf action"),
            ('policy depth=1\neligible: 0\nnames: {"q": 1}\n', "line 3: names must be a JSON list"),
            ('policy depth=1\neligible: 0\nnames: "q"\n', "line 3: names must be a JSON list"),
            ("policy depth=1\neligible: 0\nnames: [1]\n",
             "line 3: names must be a JSON list of strings"),
            ("policy depth=1\neligible: 0\nif x[0] <= 1.0:\n  action 1\nelse:\n  action 0\nextra\n",
             "line 7: trailing content after policy body"),
        ],
        ids=["empty", "header-only", "truncated", "depth-3", "bad-eligible", "null-names",
             "bad-threshold", "bad-leaf", "object-names", "string-names", "number-names",
             "trailing-line"],
    )
    def test_malformed_text_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            TreePolicy.from_text(text)

    @pytest.mark.parametrize("split, message", [
        ("if x[0] <= nan:", "line 3: bad threshold in split"),
        ("if x[0] <= -NaN:", "line 3: bad threshold in split"),
        ("if x[7] <= 1.0:", "line 3: split feature 7 is not eligible"),
    ], ids=["nan", "signed-nan", "ineligible-feature"])
    def test_split_the_tree_would_reject_names_the_line(self, split, message):
        text = f"policy depth=1\neligible: 0, 1\n{split}\n  action 0\nelse:\n  action 1\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TreePolicy.from_text(text)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [d], "must be an object, got list"),
            (lambda d: {k: v for k, v in d.items() if k != "features"},
             "missing key 'features'"),
            (lambda d: {**d, "features": None}, "key 'features'"),
            (lambda d: {**d, "eligible_features": 3}, "key 'eligible_features'"),
            (lambda d: {**d, "thresholds": {"a": 1}}, "key 'thresholds'"),
            (lambda d: {**d, "depth": "two"}, "key 'depth'"),
            (lambda d: {**d, "feature_names": 7}, "key 'feature_names'"),
            (lambda d: {**d, "depth": 1.7}, "key 'depth': expected a JSON integer, got 1.7"),
            (lambda d: {**d, "depth": True}, "key 'depth': expected a JSON integer, got true"),
            (lambda d: {**d, "leaf_actions": [1.5, 0.2]}, "key 'leaf_actions': .* got 1.5"),
            (lambda d: {**d, "features": [0.9]}, "key 'features': .* got 0.9"),
            (lambda d: {**d, "eligible_features": [0, False]}, "key 'eligible_features'"),
            (lambda d: {**d, "thresholds": ["1.5"]}, "key 'thresholds': expected a JSON number"),
            (lambda d: {**d, "feature_names": "zz"}, "key 'feature_names': expected a JSON list"),
            (lambda d: {**d, "feature_names": ["a", 2]}, "key 'feature_names': .* string, got 2"),
        ],
        ids=["list", "missing-key", "null-features", "scalar-eligible", "object-thresholds",
             "string-depth", "scalar-names", "float-depth", "bool-depth", "float-leaves",
             "float-features", "bool-eligible", "string-thresholds", "string-names",
             "number-name"],
    )
    def test_malformed_json_names_the_key(self, edit, message):
        payload = json.loads(stump(0, 1.5, 1, 0).to_json())
        with pytest.raises(ValueError, match=message):
            TreePolicy.from_json(json.dumps(edit(payload)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: {**d, "features": d["features"][:-1]},
             "key 'features': expected 3 value(s), got 2"),
            (lambda d: {**d, "thresholds": [*d["thresholds"], 0.5]},
             "key 'thresholds': expected 3 value(s), got 4"),
            (lambda d: {**d, "leaf_actions": d["leaf_actions"][:2]},
             "key 'leaf_actions': expected 4 value(s), got 2"),
            (lambda d: {**d, "depth": 1}, "key 'features': expected 1 value(s), got 3"),
            (lambda d: {**d, "thresholds": [0.0, float("nan"), 1.0]},
             "key 'thresholds': thresholds must not be NaN"),
            (lambda d: {**d, "leaf_actions": [0, 1, 2, 1]},
             "key 'leaf_actions': leaf actions must be 0 or 1"),
            (lambda d: {**d, "depth": 3}, "key 'depth': depth must be in 1..2, got 3"),
            (lambda d: {**d, "depth": 10**18},
             f"key 'depth': depth must be in 1..2, got {10**18}"),
            (lambda d: {**d, "depth": 0}, "key 'depth': depth must be in 1..2, got 0"),
        ],
        ids=["short-features", "long-thresholds", "short-leaves", "depth-for-fewer-nodes",
             "nan-threshold", "leaf-action-2", "depth-3", "huge-depth", "depth-0"],
    )
    def test_json_shape_and_nan_name_the_key(self, edit, message):
        tree = TreePolicy(
            depth=2, features=np.array([0, 1, 0]), thresholds=np.array([0.5, -np.inf, 2.0]),
            leaf_actions=np.array([1, 0, 0, 1]), eligible_features=(0, 1),
        )
        payload = json.loads(tree.to_json())
        with pytest.raises(ValueError, match=f"^policy JSON {re.escape(message)}$"):
            TreePolicy.from_json(json.dumps(edit(payload)))

    @pytest.mark.parametrize("tree", [
        constant_policy(1),
        search_tree(np.random.default_rng(3).normal(size=(50, 2)), np.ones(50), 2),
    ], ids=["treat-all", "all-one-way-depth-2"])
    def test_json_is_standard_and_round_trips(self, tree):
        assert not np.all(np.isfinite(tree.thresholds))  # the case that needs a string form
        text = tree.to_json()
        json.loads(text, parse_constant=reject_constant)
        assert TreePolicy.from_json(text) == tree

    def test_json_still_reads_the_infinity_tokens(self):
        tree = search_tree(np.random.default_rng(3).normal(size=(50, 2)), np.ones(50), 2)
        legacy = tree.to_json().replace('"-inf"', "-Infinity").replace('"inf"', "Infinity")
        assert "Infinity" in legacy
        assert TreePolicy.from_json(legacy) == tree


@st.composite
def trees(draw):
    depth = draw(st.integers(1, 2))
    p = draw(st.integers(1, 4))
    eligible = draw(st.sets(st.integers(0, p - 1), min_size=1))
    n_internal = 2**depth - 1
    name = st.text()
    return TreePolicy(
        depth=depth,
        features=draw(st.lists(st.sampled_from(sorted(eligible)), min_size=n_internal,
                               max_size=n_internal)),
        thresholds=draw(st.lists(st.floats(allow_nan=False), min_size=n_internal,
                                 max_size=n_internal)),
        leaf_actions=draw(st.lists(st.integers(0, 1), min_size=n_internal + 1,
                                   max_size=n_internal + 1)),
        eligible_features=tuple(eligible),
        feature_names=draw(st.none() | st.lists(name, min_size=p, max_size=p)),
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


class TestPolicyParsingProperties:
    @given(trees())
    def test_text_and_json_round_trip(self, tree):
        assert TreePolicy.from_text(tree.to_text()) == tree
        assert TreePolicy.from_json(tree.to_json()) == tree

    @given(st.text() | trees().flatmap(
        lambda tree: st.integers(0, len(tree.to_text())).map(lambda k: tree.to_text()[:k])
    ))
    def test_arbitrary_text_raises_only_value_error(self, text):
        try:
            TreePolicy.from_text(text)
        except ValueError:
            pass

    @given(trees(), st.sampled_from(["depth", "features", "thresholds", "leaf_actions",
                                     "eligible_features", "feature_names"]), json_values)
    def test_arbitrary_json_field_raises_only_value_error(self, tree, key, value):
        payload = json.loads(tree.to_json())
        payload[key] = value
        try:
            TreePolicy.from_json(json.dumps(payload))
        except ValueError:
            pass

    @given(json_values | st.text())
    def test_arbitrary_json_document_raises_only_value_error(self, value):
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            TreePolicy.from_json(text)
        except ValueError:
            pass


class TestSearchTree:
    def test_uniformly_positive_scores_treat_everyone(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(15, 2))
        gamma = np.abs(rng.normal(size=15)) + 0.1
        for depth in (1, 2):
            tree = search_tree(x, gamma, depth)
            np.testing.assert_array_equal(evaluate_policy(tree, x), np.ones(15))
            assert tree_objective(tree, x, gamma) == pytest.approx(np.sum(np.abs(gamma)))

    def test_hand_enumerated_stump(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        gamma = np.array([-1.0, -1.0, 2.0, 2.0])
        tree = search_tree(x, gamma, depth=1)
        assert tree.features[0] == 0
        assert tree.thresholds[0] == 2.5
        np.testing.assert_array_equal(tree.leaf_actions, [0, 1])
        assert tree_objective(tree, x, gamma) == 6.0

    def test_matches_exhaustive_enumeration_exactly(self):
        # integer scores keep every partial sum exact, so equality is bitwise
        rng = np.random.default_rng(63)
        for trial in range(60):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(1, 4))
            x = rng.normal(size=(n, p))
            if trial % 3 == 0:  # induce duplicate values and threshold ties
                x = np.round(x)
            gamma = rng.integers(-9, 10, size=n).astype(float)
            eligible = tuple(range(p))
            for depth in (1, 2):
                tree = search_tree(x, gamma, depth, eligible)
                oracle_obj, oracle_tree = slow_tree_search(x, gamma, depth, eligible)
                assert tree_objective(tree, x, gamma) == oracle_obj
                assert tree == oracle_tree

    def test_matches_enumeration_on_continuous_scores(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(1, 4))
            x = rng.normal(size=(n, p))
            gamma = rng.normal(size=n)
            for depth in (1, 2):
                tree = search_tree(x, gamma, depth)
                oracle_obj, _ = slow_tree_search(x, gamma, depth, tuple(range(p)))
                assert tree_objective(tree, x, gamma) == pytest.approx(oracle_obj, abs=1e-10)

    def test_deeper_trees_never_do_worse(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            x = rng.normal(size=(30, 3))
            gamma = rng.normal(size=30)
            d1 = tree_objective(search_tree(x, gamma, 1), x, gamma)
            d2 = tree_objective(search_tree(x, gamma, 2), x, gamma)
            assert d2 >= d1 - 1e-12

    def test_negating_scores_flips_assignments(self):
        rng = np.random.default_rng(66)
        for depth in (1, 2):
            x = rng.normal(size=(25, 2))
            gamma = rng.normal(size=25)
            plus = evaluate_policy(search_tree(x, gamma, depth), x)
            minus = evaluate_policy(search_tree(x, -gamma, depth), x)
            np.testing.assert_array_equal(minus, 1 - plus)

    def test_positive_scaling_leaves_assignments_alone(self):
        rng = np.random.default_rng(67)
        for depth in (1, 2):
            x = rng.normal(size=(25, 2))
            gamma = rng.normal(size=25)
            base = evaluate_policy(search_tree(x, gamma, depth), x)
            scaled = evaluate_policy(search_tree(x, 37.5 * gamma, depth), x)
            np.testing.assert_array_equal(scaled, base)

    def test_monotone_transform_of_a_covariate_changes_only_thresholds(self):
        # A strictly increasing map keeps the order and ties of a column's
        # values, so every candidate split cuts the rows the same way.
        transforms = (np.exp, lambda v: v**3 + 2.0 * v, lambda v: 3.0 * v + 7.0, np.arctan)
        rng = np.random.default_rng(70)
        for trial in range(150):
            n, p = int(rng.integers(5, 120)), int(rng.integers(1, 4))
            x = rng.normal(size=(n, p))
            if trial % 2:  # ties
                x = np.round(x * 2.0) / 2.0
            kind = (trial // 2) % 4
            if kind == 0:
                gamma = rng.normal(size=n)
            elif kind == 1:
                gamma = rng.integers(-9, 10, size=n).astype(float)
            elif kind == 2:
                gamma = np.round(rng.normal(size=n), 1)
            else:
                gamma = rng.choice([-1.0, 1.0], size=n) * np.exp(3.0 * rng.normal(size=n))
            j = int(rng.integers(p))
            for transform in transforms:
                moved = x.copy()
                moved[:, j] = transform(x[:, j])
                assert np.all(np.isfinite(moved[:, j]))
                assert len(np.unique(moved[:, j])) == len(np.unique(x[:, j]))
                for depth in (1, 2):
                    tree = search_tree(x, gamma, depth)
                    twin = search_tree(moved, gamma, depth)
                    np.testing.assert_array_equal(twin.features, tree.features)
                    np.testing.assert_array_equal(twin.leaf_actions, tree.leaf_actions)
                    np.testing.assert_array_equal(
                        evaluate_policy(twin, moved), evaluate_policy(tree, x)
                    )
                    assert tree_objective(twin, moved, gamma) == tree_objective(tree, x, gamma)

    def test_leaf_ties_default_to_no_treatment(self):
        tree = search_tree(np.array([[0.0], [1.0]]), np.array([2.0, -2.0]), depth=1)
        # the best split separates the units; a constant tree would tie at 0
        np.testing.assert_array_equal(tree.leaf_actions, [1, 0])
        all_zero = search_tree(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]), depth=1)
        np.testing.assert_array_equal(all_zero.leaf_actions, [0, 0])

    def test_restricted_features_respected(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=(40, 2))
        gamma = np.where(x[:, 1] > 0, 1.0, -1.0)  # signal lives in feature 1
        tree = search_tree(x, gamma, depth=2, eligible_features=(0,))
        assert set(tree.features.tolist()) == {0}
        with pytest.raises(ValueError, match="nonempty"):
            search_tree(x, gamma, depth=1, eligible_features=())

    def test_single_row(self):
        tree = search_tree(np.array([[5.0]]), np.array([3.0]), depth=1)
        np.testing.assert_array_equal(evaluate_policy(tree, np.array([[5.0]])), [1])

    @pytest.mark.parametrize("depth", [1, 2])
    def test_scores_whose_sums_overflow_are_rejected(self, depth):
        rng = np.random.default_rng(69)
        x = np.round(rng.normal(size=(20, 2)), 1)
        huge = rng.choice([-1.7e308, 1.7e308, 1e300], size=20)
        with pytest.raises(ValueError, match="gamma"):
            search_tree(x, huge, depth=depth)
        # the sum is finite, but 4 * sum(|gamma|) is not
        with pytest.raises(ValueError, match="gamma"):
            search_tree(x[:2], np.array([6e307, 6e307]), depth=depth)


class TestDepthTwoPrefixSums:
    def test_bitwise_equal_to_masked_root_search(self):
        # float scores that tie in exact arithmetic (0.1 + 0.2 vs 0.3) make
        # near-ties whose winner depends on the order of the additions
        rng = np.random.default_rng(69)
        nsw = nsw_covariates()
        for trial in range(210):
            n = int(rng.integers(1, 401))
            p = int(rng.integers(1, 5))
            if trial % 3 == 0:
                x = rng.normal(size=(n, p))
            elif trial % 3 == 1:
                x = np.round(rng.normal(size=(n, p)) * 2.0) / 2.0
            else:
                columns = rng.choice(nsw.shape[1], size=p, replace=False)
                x = nsw[rng.choice(nsw.shape[0], size=n, replace=False)][:, columns]
            kind = (trial // 3) % 4
            if kind == 0:
                gamma = rng.normal(size=n)
            elif kind == 1:
                gamma = 1e4 * rng.normal(size=n)
            elif kind == 2:
                gamma = rng.integers(-9, 10, size=n).astype(float)
            else:
                gamma = rng.choice([0.1, 0.2, 0.3], size=n) * rng.choice([-1.0, 1.0], size=n)
            eligible = None
            if trial % 5 == 4 and p > 1:
                eligible = tuple(rng.choice(p, size=p - 1, replace=False).tolist())
            assert search_tree(x, gamma, 2, eligible) == masked_root_search(x, gamma, eligible)

    def test_one_row_blocks_are_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(70)
        x = np.round(rng.normal(size=(300, 3)) * 2.0)  # many tied values
        gamma = rng.normal(size=300)
        # the scores read only each row's feature, sort order and candidates
        per_feature = [
            (f, np.argsort(x[:, f], kind="stable"), None, None, policytree._split_candidates(x[:, f]))
            for f in range(3)
        ]
        whole_scores = policytree._root_scores(x, gamma, per_feature)
        whole = search_tree(x, gamma, 2)
        monkeypatch.setattr(policytree, "_BLOCK_BYTES", 1)
        assert policytree._root_scores(x, gamma, per_feature).tobytes() == whole_scores.tobytes()
        assert search_tree(x, gamma, 2) == whole == masked_root_search(x, gamma)

    def test_memory_stays_within_the_block_budget(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(3000, 4))
        gamma = rng.normal(size=3000)
        tracemalloc.start()
        try:
            search_tree(x, gamma, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one unblocked 3001 x 3001 prefix-sum array alone would be 72 MB
        assert peak < 16 * 2**20

    def test_all_zero_scores_rescore_only_the_first_root(self, monkeypatch):
        rng = np.random.default_rng(72)
        x = rng.normal(size=(500, 4))
        gamma = np.zeros(500)
        calls = []
        best_stump = policytree._best_stump

        def counted(per_feature, mask):
            calls.append(mask)
            return best_stump(per_feature, mask)

        monkeypatch.setattr(policytree, "_best_stump", counted)
        tree = search_tree(x, gamma, 2)
        assert len(calls) == 2  # the left and right child of root (0, -inf)
        assert not calls[0].any() and calls[1].all()
        assert tree == masked_root_search(x, gamma)

    def test_scores_match_the_ordered_pair_tables(self):
        # one table per unordered pair sums in another order than one per
        # ordered pair; the masked re-scoring needs them within 1e-9 sum|gamma|
        for x, gamma, eligible in depth_two_problems():
            per_feature = per_feature_rows(x, eligible)
            scores = policytree._root_scores(x, gamma, per_feature)
            reference = ordered_pair_root_scores(x, gamma, per_feature)
            assert scores.shape == reference.shape
            assert np.max(np.abs(scores - reference)) <= 1e-9 * np.sum(np.abs(gamma))

    def test_single_feature_scores_need_no_table(self):
        rng = np.random.default_rng(73)
        for x in (rng.normal(size=(200, 1)), np.round(rng.normal(size=(200, 1)) * 2.0)):
            gamma = rng.normal(size=200)
            per_feature = per_feature_rows(x)
            scores = policytree._root_scores(x, gamma, per_feature)
            reference = ordered_pair_root_scores(x, gamma, per_feature)
            assert np.max(np.abs(scores - reference)) <= 1e-9 * np.sum(np.abs(gamma))
            assert search_tree(x, gamma, 2) == masked_root_search(x, gamma)

    def test_integer_scores_rescore_only_the_first_best_root(self, monkeypatch):
        # integer gamma sums exactly, so equal scores are exact ties and the
        # first best root ends the re-scoring
        rng = np.random.default_rng(74)
        x = rng.normal(size=(500, 4))
        calls = []
        best_stump = policytree._best_stump

        def counted(per_feature, mask):
            calls.append(mask)
            return best_stump(per_feature, mask)

        monkeypatch.setattr(policytree, "_best_stump", counted)
        gamma = np.ones(500)
        tree = search_tree(x, gamma, 2)
        assert len(calls) == 2  # 4008 with the rounding tolerance
        assert tree == masked_root_search(x, gamma)


def chunked_problems(n, seed):
    """(x, per_feature rows) whose feature pairs all take the chunked route.

    Three continuous columns, then a zero-inflated, tied column shaped like
    the study's 1974 earnings (about 60% zeros, the rest in cents).
    """
    rng = np.random.default_rng(seed)
    earnings = np.round(rng.lognormal(8.0, 1.0, size=n), 2)
    child = np.where(rng.random(n) < 0.6, 0.0, earnings)
    x = np.column_stack([rng.normal(size=(n, 3)), child])
    return x, per_feature_rows(x)


@pytest.fixture
def chunked_pairs(monkeypatch):
    """Records the (W_f, W_g) of every ordered pair scored by the chunked route."""
    calls = []
    chunked = policytree._chunked_children

    def spy(a_f, order, c_f, a_g, c_g, gamma):
        calls.append((len(c_f), len(c_g)))
        return chunked(a_f, order, c_f, a_g, c_g, gamma)

    monkeypatch.setattr(policytree, "_chunked_children", spy)
    return calls


def every_ordered_pair(per_feature):
    widths = [len(cands) for *_, cands in per_feature]
    return sorted((w_f, w_g) for f, w_f in enumerate(widths) for g, w_g in enumerate(widths) if f != g)


class TestChunkedDepthTwoScores:
    """Pairs with more than _CHUNKED_CELLS_PER_UNIT table cells per unit are scored in chunks."""

    def test_scores_within_tolerance_of_the_ordered_pair_tables(self, chunked_pairs):
        x, per_feature = chunked_problems(600, 80)
        rng = np.random.default_rng(81)
        for gamma in (
            rng.normal(size=600),
            1e4 * rng.normal(size=600),
            rng.choice([0.1, 0.2, 0.3], size=600) * rng.choice([-1.0, 1.0], size=600),
        ):
            chunked_pairs.clear()
            scores = policytree._root_scores(x, gamma, per_feature)
            assert sorted(chunked_pairs) == every_ordered_pair(per_feature)
            reference = ordered_pair_root_scores(x, gamma, per_feature)
            assert scores.shape == reference.shape
            assert np.max(np.abs(scores - reference)) <= 1e-9 * np.sum(np.abs(gamma))

    def test_integer_scores_equal_the_ordered_pair_tables(self, chunked_pairs):
        # the search re-scores only exact ties for integer gamma (tolerance 0)
        x, per_feature = chunked_problems(600, 82)
        rng = np.random.default_rng(83)
        for gamma in (rng.integers(-9, 10, size=600), np.ones(600), rng.integers(0, 2, size=600)):
            gamma = gamma.astype(float)
            chunked_pairs.clear()
            scores = policytree._root_scores(x, gamma, per_feature)
            assert sorted(chunked_pairs) == every_ordered_pair(per_feature)
            assert np.array_equal(scores, ordered_pair_root_scores(x, gamma, per_feature))

    def test_one_byte_blocks_give_the_same_bytes(self, chunked_pairs, monkeypatch):
        x, per_feature = chunked_problems(600, 84)
        gamma = np.random.default_rng(85).normal(size=600)
        whole = policytree._root_scores(x, gamma, per_feature)
        monkeypatch.setattr(policytree, "_BLOCK_BYTES", 1)
        assert policytree._root_scores(x, gamma, per_feature).tobytes() == whole.tobytes()
        assert sorted(chunked_pairs) == sorted(2 * every_ordered_pair(per_feature))

    def test_search_equals_the_masked_root_search(self, chunked_pairs):
        rng = np.random.default_rng(86)
        x, _ = chunked_problems(300, 87)
        problems = [
            (x[:, :3], rng.normal(size=300)),
            # near-ties that depend on the order of the additions
            (x[:, [0, 3]], rng.choice([0.1, 0.2, 0.3], size=300) * rng.choice([-1.0, 1.0], size=300)),
        ]
        for x, gamma in problems:
            chunked_pairs.clear()
            tree = search_tree(x, gamma, 2)
            assert sorted(chunked_pairs) == every_ordered_pair(per_feature_rows(x))
            assert tree == masked_root_search(x, gamma)

    def test_memory_stays_bounded_at_n_8000(self, chunked_pairs):
        # the dense route would build 6 tables of 8001 x 8001 cells (512 MB each)
        rng = np.random.default_rng(88)
        x = rng.normal(size=(8000, 4))
        gamma = rng.normal(size=8000)
        tracemalloc.start()
        try:
            search_tree(x, gamma, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(chunked_pairs) == 12
        assert peak < 16 * 2**20

    def test_chunk_tables_stay_within_blocks_at_n_32000(self):
        # the whole (179, 32179) chunk table would be 46 MB on its own
        rng = np.random.default_rng(89)
        x = rng.normal(size=(32_000, 2))
        gamma = rng.normal(size=32_000)
        per_feature = per_feature_rows(x)
        cands = per_feature[1][4]
        a_g = np.searchsorted(cands, x[:, 1], side="left")
        c_g = np.cumsum(np.bincount(a_g, weights=gamma, minlength=len(cands)))
        tracemalloc.start()
        try:
            policytree._chunk_tables(per_feature[0][1], a_g, c_g, gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestLearnPolicy:
    def test_hand_example_composes(self):
        data = ObservationalDataset(
            x=np.array([[0.0], [1.0], [2.0], [3.0]]),
            w=np.array([1, 0, 1, 0]),
            y=np.array([0.0, 1.0, 4.0, 2.0]),
            feature_names=("x",),
        )
        config = LearnConfig(m=1, correction="none", depth=1)
        tree = learn_policy(data, config)
        # hand-computed scores are (-1, -1, 3, 2): split below x=2, treat the right side
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        np.testing.assert_array_equal(impute_raw(data, matches).gamma, [-1.0, -1.0, 3.0, 2.0])
        assert tree.thresholds[0] == 1.5
        np.testing.assert_array_equal(tree.leaf_actions, [0, 1])
        assert tree.feature_names == ("x",)

    def test_noiseless_quadrant_signal_recovered(self):
        rng = np.random.default_rng(69)
        rows = rng.normal(size=(40, 2))
        x = np.vstack([rows, rows])
        w = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
        effect = np.where((x[:, 0] > 0) & (x[:, 1] > 0), 1.0, -1.0)
        y = w * effect
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b"))
        tree = learn_policy(data, LearnConfig(m=1, correction="none", depth=2))
        np.testing.assert_array_equal(
            evaluate_policy(tree, x), ((x[:, 0] > 0) & (x[:, 1] > 0)).astype(int)
        )

    def test_dataset_exclusions_flow_through(self):
        rng = np.random.default_rng(70)
        data = random_dataset(rng, 60, 3, min_arm=10)
        restricted = data.excluding_from_policy(["f0", "f2"])
        tree = learn_policy(restricted, LearnConfig(m=1, correction="none", depth=2))
        assert set(tree.features.tolist()) == {1}

    def test_matching_stage_failure_is_labeled(self):
        rng = np.random.default_rng(71)
        data = random_dataset(rng, 12, 2, min_arm=2)
        with pytest.raises(PolicyLearningError, match="stage 'matching'") as excinfo:
            learn_policy(data, LearnConfig(m=50, correction="none"))
        assert excinfo.value.stage == "matching"

    def test_outcome_model_stage_failure_is_labeled(self):
        data = ObservationalDataset(
            x=np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.5]]),
            w=np.array([0, 1, 0, 1]),
            y=np.arange(4.0),
            feature_names=("a", "b"),
        )
        with pytest.raises(PolicyLearningError, match="stage 'outcome_model'"):
            learn_policy(data, LearnConfig(m=1, correction="ols"))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="correction"):
            LearnConfig(correction="boost")
        with pytest.raises(ValueError, match="m must be"):
            LearnConfig(m=0)
        with pytest.raises(ValueError, match="depth"):
            LearnConfig(depth=3)
        with pytest.raises(ValueError, match="seed"):
            LearnConfig(seed=-1)
        with pytest.raises(ValueError, match="lasso_folds"):
            LearnConfig(lasso_folds=1)

    def test_deterministic_given_config(self):
        rng = np.random.default_rng(72)
        data = random_dataset(rng, 50, 2, min_arm=10)
        config = LearnConfig(m=2, correction="lasso", depth=2, lasso_folds=3, seed=11)
        assert learn_policy(data, config) == learn_policy(data, config)
