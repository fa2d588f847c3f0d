import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mbpolicy import (
    METHODS,
    MonteCarloEstimate,
    ReplicateResult,
    SimulationSpec,
    TreePolicy,
    constant_policy,
    empirical_value,
    evaluate_policy,
    generate,
    learn_with_method,
    run_experiment,
    summarize_results,
    true_advantage,
    write_results_csv,
    write_summary_csv,
    write_timings_csv,
)
from mbpolicy import simulation


def spec(scenario=1, main="linear", contrast="tree", n=100, seed=0):
    return SimulationSpec(
        propensity_scenario=scenario, main_effect=main, contrast=contrast, n=n, seed=seed
    )


QUADRANT_TREE = TreePolicy(
    depth=2,
    features=np.array([0, 0, 1]),
    thresholds=np.array([0.0, np.inf, 0.0]),
    leaf_actions=np.array([0, 0, 0, 1]),
    eligible_features=(0, 1, 2, 3),
)


class TestGenerate:
    def test_regeneration_is_bit_identical(self):
        a_data, a_oracle = generate(spec(3, "nonlinear", "nontree", n=500, seed=99))
        b_data, b_oracle = generate(spec(3, "nonlinear", "nontree", n=500, seed=99))
        assert np.array_equal(a_data.x, b_data.x)
        assert np.array_equal(a_data.w, b_data.w)
        assert np.array_equal(a_data.y, b_data.y)
        assert np.array_equal(a_oracle.y0, b_oracle.y0)
        assert np.array_equal(a_oracle.y1, b_oracle.y1)

    def test_different_seeds_differ(self):
        a_data, _ = generate(spec(seed=1))
        b_data, _ = generate(spec(seed=2))
        assert not np.array_equal(a_data.x, b_data.x)

    def test_treated_fraction_balanced_scenario(self):
        data, _ = generate(spec(1, n=10_000, seed=7))
        assert abs(data.w.mean() - 0.5) < 0.02

    def test_treated_fraction_constant_scenario(self):
        # constant log-odds of 9:1 in favor of treatment
        data, _ = generate(spec(4, n=10_000, seed=7))
        assert abs(data.w.mean() - 0.9) < 0.02

    def test_scenario_three_is_treatment_heavy(self):
        data, _ = generate(spec(3, n=10_000, seed=7))
        assert data.w.mean() > 0.7

    def test_contrast_point_values(self):
        _, tree_oracle = generate(spec(contrast="tree", n=2))
        pts = np.array([[1.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]])
        np.testing.assert_allclose(tree_oracle.contrast(pts), [1.0, -1.0, -1.0])

        _, curve_oracle = generate(spec(contrast="nontree", n=2))
        pts = np.array([[0.0, 5.0, 0.0, 0.0], [0.0, -5.0, 0.0, 0.0]])
        np.testing.assert_allclose(curve_oracle.contrast(pts), [1.0, -1.0])

    def test_mean_function_point_values(self):
        _, linear = generate(spec(main="linear", n=2))
        point = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert linear.mu(point, 0)[0] == pytest.approx(1.0, abs=1e-12)

        _, nonlinear = generate(spec(main="nonlinear", n=2))
        origin = np.zeros((1, 4))
        assert nonlinear.mu(origin, 0)[0] == pytest.approx(2.5, abs=1e-12)

    def test_mu_arm_gap_is_the_contrast(self):
        _, oracle = generate(spec(main="nonlinear", contrast="nontree", n=50, seed=3))
        pts = np.random.default_rng(4).normal(size=(20, 4))
        np.testing.assert_allclose(
            oracle.mu(pts, 1) - oracle.mu(pts, 0), oracle.contrast(pts), atol=1e-12
        )

    def test_observed_outcome_is_the_assigned_potential_outcome(self):
        data, oracle = generate(spec(2, "nonlinear", "tree", n=300, seed=11))
        expected = np.where(data.w == 1, oracle.y1, oracle.y0)
        assert np.array_equal(data.y, expected)

    def test_potential_outcome_gap_equals_contrast(self):
        data, oracle = generate(spec(5, "linear", "nontree", n=300, seed=12))
        np.testing.assert_allclose(
            oracle.y1 - oracle.y0, oracle.contrast(data.x), atol=1e-12
        )

    def test_contrast_is_plus_minus_one(self):
        for kind in ("tree", "nontree"):
            data, oracle = generate(spec(contrast=kind, n=200, seed=13))
            assert np.all(np.isin(oracle.contrast(data.x), (-1.0, 1.0)))

    def test_propensity_matches_treatment_rate_coarsely(self):
        data, oracle = generate(spec(2, n=10_000, seed=14))
        assert abs(oracle.propensity(data.x).mean() - data.w.mean()) < 0.02

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="propensity_scenario"):
            spec(scenario=6)
        with pytest.raises(ValueError, match="main_effect"):
            spec(main="cubic")
        with pytest.raises(ValueError, match="contrast"):
            spec(contrast="step")
        with pytest.raises(ValueError, match="n must be"):
            spec(n=0)
        assert spec(3, "nonlinear", "nontree", n=250).key() == "s3-nonlinear-nontree-n250"


class TestEmpiricalValue:
    def test_complement_identity(self):
        data, oracle = generate(spec(1, "nonlinear", "tree", n=400, seed=21))
        assignments = (data.x[:, 0] > 0.3).astype(int)
        total = empirical_value(assignments, oracle) + empirical_value(1 - assignments, oracle)
        assert total == pytest.approx(np.mean(oracle.y0 + oracle.y1), rel=1e-12)

    def test_shape_mismatch(self):
        _, oracle = generate(spec(n=10))
        with pytest.raises(ValueError, match="shape"):
            empirical_value(np.zeros(9, dtype=int), oracle)

    def test_rejects_values_other_than_zero_and_one(self):
        _, oracle = generate(spec(n=10))
        with pytest.raises(ValueError, match="only 0 and 1"):
            empirical_value(np.full(10, 2), oracle)

    @pytest.mark.parametrize(
        "main,contrast,target",
        [
            ("linear", "tree", 1.25),
            ("linear", "nontree", 1.36),
            ("nonlinear", "tree", 1.77),
            ("nonlinear", "nontree", 1.87),
        ],
    )
    def test_optimal_rule_value_hits_known_level(self, main, contrast, target):
        data, oracle = generate(spec(1, main, contrast, n=20_000, seed=2026))
        value = empirical_value(oracle.optimal_rule(data.x), oracle)
        assert value == pytest.approx(target, abs=0.03)


class TestTrueAdvantage:
    def test_treat_all_under_quadrant_contrast(self):
        # P(both positive) = 1/4, so the mean contrast is 2/4 - 1 = -1/2
        est = true_advantage(constant_policy(1), spec(contrast="tree"), 50_000, seed=31)
        assert abs(est.value - (-0.5)) < 3 * est.standard_error

    def test_exactly_optimal_policy_scores_one(self):
        est = true_advantage(QUADRANT_TREE, spec(contrast="tree"), 10_000, seed=32)
        assert est.value == 1.0
        assert est.standard_error == 0.0

    def test_complement_negates_exactly(self):
        flipped = TreePolicy(
            depth=QUADRANT_TREE.depth,
            features=QUADRANT_TREE.features,
            thresholds=QUADRANT_TREE.thresholds,
            leaf_actions=1 - QUADRANT_TREE.leaf_actions,
            eligible_features=QUADRANT_TREE.eligible_features,
        )
        setting = spec(contrast="nontree")
        plus = true_advantage(QUADRANT_TREE, setting, 5_000, seed=33)
        minus = true_advantage(flipped, setting, 5_000, seed=33)
        assert minus.value == -plus.value
        assert minus.standard_error == plus.standard_error

    def test_needs_two_draws(self):
        with pytest.raises(ValueError, match="mc_draws"):
            true_advantage(constant_policy(1), spec(), 1, seed=0)


class TestLearnWithMethod:
    def test_registry_covers_expected_methods(self):
        assert set(METHODS) == {
            "mb-m1", "mb-m5", "mb-lr-m1", "mb-lr-m5",
            "mb-lasso-m1", "mb-lasso-m5", "aipw-tree",
        }

    def test_unknown_method(self):
        data, _ = generate(spec(n=50))
        with pytest.raises(ValueError, match="unknown method"):
            learn_with_method(data, "forest", seed=0)

    def test_aipw_tree_returns_named_policy(self):
        data, _ = generate(spec(n=120, seed=41))
        tree = learn_with_method(data, "aipw-tree", seed=0, depth=1)
        assert tree.depth == 1
        assert tree.feature_names == ("x1", "x2", "x3", "x4")
        assert evaluate_policy(tree, data.x).shape == (120,)

    def test_matching_method_respects_depth(self):
        data, _ = generate(spec(n=80, seed=42))
        assert learn_with_method(data, "mb-m1", seed=0, depth=1).depth == 1
        assert learn_with_method(data, "mb-m1", seed=0, depth=2).depth == 2


class TestRunExperiment:
    def test_three_replicates_distinct_and_reproducible(self):
        settings = [spec(1, "linear", "tree", n=60)]
        first = run_experiment(settings, ["mb-m1"], replications=3, seed=5, test_n=800)
        second = run_experiment(settings, ["mb-m1"], replications=3, seed=5, test_n=800)
        assert len(first) == 3
        assert all(row.error == "" for row in first)
        assert len({row.value for row in first}) == 3  # fresh draws per replicate
        for a, b in zip(first, second):
            assert (a.value, a.regret, a.replicate) == (b.value, b.regret, b.replicate)

    def test_methods_share_replicate_test_sets(self):
        # value + regret recovers the optimal-rule value, which depends only on
        # the replicate's test draw: identical across methods and training sizes
        settings = [spec(1, "linear", "tree", n=60), spec(1, "linear", "tree", n=90)]
        rows = run_experiment(
            settings, ["mb-m1", "mb-m5"], replications=2, seed=5, test_n=600
        )
        optimal = {}
        for row in rows:
            optimal.setdefault(row.replicate, set()).add(row.value + row.regret)
        assert all(len(values) == 1 for values in optimal.values())
        assert optimal[0] != optimal[1]

    def test_method_order_does_not_change_results(self):
        settings = [spec(1, "linear", "tree", n=50)]
        forward = run_experiment(settings, ["mb-m1", "mb-m5"], 2, seed=6, test_n=400)
        backward = run_experiment(settings, ["mb-m5", "mb-m1"], 2, seed=6, test_n=400)
        key = lambda row: (row.method, row.replicate)
        left = {key(r): (r.value, r.regret) for r in forward}
        right = {key(r): (r.value, r.regret) for r in backward}
        assert left == right

    def test_thread_count_does_not_change_results(self):
        settings = [spec(1, "linear", "tree", n=40)]
        serial = run_experiment(settings, ["mb-m1"], 2, seed=7, test_n=300, threads=1)
        parallel = run_experiment(settings, ["mb-m1"], 2, seed=7, test_n=300, threads=2)
        for a, b in zip(serial, parallel):
            assert (a.method, a.replicate, a.value, a.regret, a.error) == (
                b.method, b.replicate, b.value, b.regret, b.error
            )

    def test_failures_are_rows_not_exceptions(self):
        # 5-fold lasso cannot run on arms this small
        rows = run_experiment(
            [spec(1, "linear", "tree", n=8)], ["mb-lasso-m1"], 1, seed=8, test_n=100
        )
        assert len(rows) == 1
        assert rows[0].error != ""
        assert np.isnan(rows[0].value) and np.isnan(rows[0].regret)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="unknown methods"):
            run_experiment([spec(n=30)], ["mb-m1", "forest"], 1)
        with pytest.raises(ValueError, match="at least one"):
            run_experiment([], ["mb-m1"], 1)
        with pytest.raises(ValueError, match="at least one"):
            run_experiment([spec(n=30)], ["mb-m1"], 0)


class TestResultTables:
    def rows(self):
        base = dict(propensity_scenario=1, main_effect="linear", contrast="tree", n=40)
        return [
            ReplicateResult(**base, method="mb-m1", replicate=0, value=1.0, regret=0.25,
                            seconds=0.1),
            ReplicateResult(**base, method="mb-m1", replicate=1, value=3.0, regret=0.5,
                            seconds=0.2),
            ReplicateResult(**base, method="mb-m1", replicate=2, value=float("nan"),
                            regret=float("nan"), seconds=0.3, error="ValueError: boom"),
            ReplicateResult(**base, method="aipw-tree", replicate=0, value=float("nan"),
                            regret=float("nan"), seconds=0.1, error="ValueError: boom"),
        ]

    def test_results_csv_round_trips_floats(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(self.rows(), path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 4
        assert set(records[0]) == {
            "propensity_scenario", "main_effect", "contrast", "n",
            "method", "replicate", "value", "regret", "error",
        }
        assert float(records[0]["value"]) == 1.0
        assert records[2]["error"] == "ValueError: boom"
        assert np.isnan(float(records[2]["value"]))

    def test_timings_kept_out_of_results(self, tmp_path):
        write_results_csv(self.rows(), tmp_path / "results.csv")
        write_timings_csv(self.rows(), tmp_path / "timings.csv")
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert "seconds" not in header
        timing_records = list(csv.DictReader(open(tmp_path / "timings.csv", newline="")))
        assert [float(r["seconds"]) for r in timing_records] == [0.1, 0.2, 0.3, 0.1]

    def test_summaries_aggregate_over_successes(self, tmp_path):
        summaries = summarize_results(self.rows())
        assert len(summaries) == 2
        first = summaries[0]
        assert first["method"] == "mb-m1"
        assert first["replications"] == 3 and first["failed"] == 1
        assert first["mean_value"] == pytest.approx(2.0)
        assert first["sd_value"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert first["median_value"] == pytest.approx(2.0)
        assert first["iqr_value"] == pytest.approx(1.0)
        assert first["mean_regret"] == pytest.approx(0.375)
        all_failed = summaries[1]
        assert all_failed["failed"] == 1 and np.isnan(all_failed["mean_value"])

        write_summary_csv(self.rows(), tmp_path / "summary.csv")
        records = list(csv.DictReader(open(tmp_path / "summary.csv", newline="")))
        assert float(records[0]["mean_value"]) == 2.0


class TestMonteCarloEstimateType:
    def test_fields(self):
        est = MonteCarloEstimate(value=0.5, standard_error=0.01)
        assert est.value == 0.5 and est.standard_error == 0.01


_RUN_SINGLE = simulation._run_single
_REP0_DONE_ENV = "MBPOLICY_TEST_REP0_DONE"


def _worker_dies_on_replicate_1(setting, methods, rep, *args):
    """_run_single, except that replicate 1's worker exits once replicate 0 has finished."""
    marker = Path(os.environ[_REP0_DONE_ENV])
    if rep == 1:
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # let replicate 0's rows reach the parent first
        os._exit(3)
    rows = _RUN_SINGLE(setting, methods, rep, *args)
    if rep == 0:
        marker.touch()
    return rows


class TestOneJobPerReplicate:
    """run_experiment draws each (setting, replicate) once and runs every method on it."""

    @staticmethod
    def fields(row):
        return (row.propensity_scenario, row.main_effect, row.contrast, row.n, row.method,
                row.replicate, repr(row.value), repr(row.regret), row.error, row.tree)

    def test_generate_runs_twice_per_setting_and_replicate(self, monkeypatch):
        calls = []

        def spy(spec):
            calls.append(spec)
            return generate(spec)

        monkeypatch.setattr(simulation, "generate", spy)
        settings = [spec(1, "linear", "tree", n=40), spec(2, "nonlinear", "nontree", n=40)]
        rows = run_experiment(settings, ["mb-m1", "mb-m5", "mb-lr-m1"], 2, seed=3, test_n=200)
        assert len(rows) == 12 and not any(row.error for row in rows)
        # one training set and one test set per (setting, replicate)
        assert len(calls) == 2 * 2 * 2
        assert sorted(c.n for c in calls) == [40] * 4 + [200] * 4

    def test_dead_worker_fails_only_unfinished_jobs(self, monkeypatch, tmp_path):
        settings, methods = [spec(1, "linear", "tree", n=40)], ["mb-m1", "mb-m5"]
        serial = run_experiment(settings, methods, 3, seed=5, test_n=200)
        monkeypatch.setenv(_REP0_DONE_ENV, str(tmp_path / "rep0-done"))
        monkeypatch.setattr(simulation, "_run_single", _worker_dies_on_replicate_1)
        rows = run_experiment(settings, methods, 3, seed=5, test_n=200, threads=2)
        assert [(r.method, r.replicate) for r in rows] == [(r.method, r.replicate) for r in serial]
        for row, expected in zip(rows, serial):
            if row.replicate == 0 or not row.error:
                assert self.fields(row) == self.fields(expected)
            else:
                assert row.error.startswith("BrokenProcessPool: ")
                assert np.isnan(row.value) and np.isnan(row.seconds) and row.tree is None
        assert all(row.error for row in rows if row.replicate == 1)

    def test_failed_draw_fails_every_method(self):
        rows = run_experiment([spec(n=1)], ["mb-m1", "mb-m5"], 1, seed=4, test_n=100)
        assert [row.method for row in rows] == ["mb-m1", "mb-m5"]
        for row in rows:
            assert row.error == "ValueError: need at least 2 units, got 1"
            assert np.isnan(row.value) and np.isnan(row.regret) and row.tree is None

    def test_failed_method_leaves_the_others(self):
        settings = [spec(1, "linear", "tree", n=8)]
        lasso, matching = run_experiment(settings, ["mb-lasso-m1", "mb-m1"], 1, seed=8, test_n=100)
        (alone,) = run_experiment(settings, ["mb-m1"], 1, seed=8, test_n=100)
        assert lasso.method == "mb-lasso-m1" and lasso.error != "" and lasso.tree is None
        assert matching.error == ""
        assert self.fields(matching) == self.fields(alone)

    def test_rows_ordered_by_setting_method_replicate_at_any_thread_count(self):
        settings = [spec(1, "linear", "tree", n=40), spec(3, "linear", "nontree", n=50)]
        methods = ["mb-m5", "mb-m1"]
        serial = run_experiment(settings, methods, 2, seed=9, test_n=300, threads=1)
        parallel = run_experiment(settings, methods, 2, seed=9, test_n=300, threads=2)
        assert [self.fields(r) for r in serial] == [self.fields(r) for r in parallel]
        assert [(r.n, r.method, r.replicate) for r in serial] == [
            (s.n, m, rep) for s in settings for m in methods for rep in range(2)
        ]
