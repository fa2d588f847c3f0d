from functools import partial

import numpy as np
import pytest

from mbpolicy import (
    CrossValReport,
    ObservationalDataset,
    aipw_value_estimate,
    arm_proportion_propensity,
    constant_policy,
    cross_validate,
    fit_linear_probability,
    fit_ols_per_arm,
    predict_matrix,
    search_tree,
)


def zero_mu(pts, arm):
    return np.zeros(np.atleast_2d(pts).shape[0])


def balanced_data(rng, n, p=2):
    x = rng.normal(size=(n, p))
    w = np.tile([1, 0], n // 2 + 1)[:n]
    y = x[:, 0] + w * 0.5 + rng.normal(size=n)
    return ObservationalDataset(
        x=x, w=w, y=y, feature_names=tuple(f"f{j}" for j in range(p))
    )


class TestAipwValue:
    def test_treat_all_recovers_treated_mean(self):
        # proportions propensity + zero outcome model: pure inverse weighting,
        # and treating everyone weights each treated outcome by n / n_treated
        rng = np.random.default_rng(81)
        data = balanced_data(rng, 40)
        value = aipw_value_estimate(
            data, np.ones(40, dtype=int), arm_proportion_propensity(data), zero_mu
        )
        assert value == pytest.approx(data.y[data.w == 1].mean(), rel=1e-12)

    def test_treat_none_recovers_control_mean(self):
        rng = np.random.default_rng(82)
        data = balanced_data(rng, 40)
        value = aipw_value_estimate(
            data, np.zeros(40, dtype=int), arm_proportion_propensity(data), zero_mu
        )
        assert value == pytest.approx(data.y[data.w == 0].mean(), rel=1e-12)

    def test_zero_residual_model_makes_propensity_irrelevant(self):
        # when the outcome model is exact, the estimate collapses to the model
        # value of the assignment, whatever propensities are plugged in
        rng = np.random.default_rng(83)
        x = rng.normal(size=(30, 2))
        w = np.tile([0, 1], 15)
        mu = lambda pts, arm: np.atleast_2d(pts)[:, 0] * 2.0 - arm * 1.5
        y = mu(x, 1) * w + mu(x, 0) * (1 - w)
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b"))
        pi = (x[:, 1] > 0).astype(int)
        expected = np.mean(np.where(pi == 1, mu(x, 1), mu(x, 0)))
        for e_hat in (np.full(30, 0.5), np.linspace(0.05, 0.95, 30)):
            assert aipw_value_estimate(data, pi, e_hat, mu) == pytest.approx(
                expected, rel=1e-10
            )

    def test_extreme_propensities_are_clipped(self):
        data = ObservationalDataset(
            x=np.array([[0.0], [1.0]]),
            w=np.array([1, 0]),
            y=np.array([3.0, 7.0]),
            feature_names=("a",),
        )
        value = aipw_value_estimate(
            data, np.array([1, 1]), np.array([0.0, 1.0]), zero_mu
        )
        # clipped assigned-arm probabilities are 0.01 and 0.99
        assert value == pytest.approx((3.0 / 0.01 + 0.0) / 2.0, rel=1e-12)

    def test_propensity_validation(self):
        rng = np.random.default_rng(84)
        data = balanced_data(rng, 10)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            aipw_value_estimate(data, np.ones(10, dtype=int), np.full(10, 1.2), zero_mu)
        with pytest.raises(ValueError, match="propensities have shape"):
            aipw_value_estimate(data, np.ones(10, dtype=int), np.full(9, 0.5), zero_mu)

    def test_assignment_validation(self):
        rng = np.random.default_rng(85)
        data = balanced_data(rng, 10)
        e = np.full(10, 0.5)
        with pytest.raises(ValueError, match="only 0 and 1"):
            aipw_value_estimate(data, np.full(10, 2), e, zero_mu)
        with pytest.raises(ValueError, match="assignments has shape"):
            aipw_value_estimate(data, np.ones(9, dtype=int), e, zero_mu)


class TestPropensityPlugins:
    def test_arm_proportions_constant(self):
        rng = np.random.default_rng(86)
        data = balanced_data(rng, 12)
        np.testing.assert_array_equal(
            arm_proportion_propensity(data), np.full(12, 6 / 12)
        )

    def test_linear_probability_stays_in_clip_range(self):
        rng = np.random.default_rng(87)
        x = rng.normal(size=(60, 3)) * 5.0
        w = (rng.random(60) < 0.5).astype(int)
        data = ObservationalDataset(x=x, w=w, y=rng.normal(size=60),
                                    feature_names=("a", "b", "c"))
        e = fit_linear_probability(data)
        assert np.all(e >= 0.01) and np.all(e <= 0.99)
        np.testing.assert_array_equal(e, fit_linear_probability(data))

    def test_linear_probability_mean_matches_treated_share(self):
        # with the intercept unpenalized the fitted values average to the
        # treated share whenever the clip does not bind
        rng = np.random.default_rng(88)
        x = rng.normal(size=(200, 2)) * 0.1
        w = np.tile([1, 0], 100)
        data = ObservationalDataset(x=x, w=w, y=rng.normal(size=200),
                                    feature_names=("a", "b"))
        e = fit_linear_probability(data)
        assert e.mean() == pytest.approx(0.5, abs=1e-8)


class TestCrossValidate:
    def test_equal_partition_and_pure_ipw_identity(self):
        rng = np.random.default_rng(90)
        data = balanced_data(rng, 10)
        train_sizes = []

        def treat_all(train):
            train_sizes.append(train.n)
            return constant_policy(1, feature_names=train.feature_names)

        report = cross_validate(
            data, treat_all, folds=5, repeats=1, seed=0,
            e_hat=np.full(10, 0.5), mu_hat=zero_mu,
        )
        assert train_sizes == [8] * 5
        # equal folds + per-unit terms independent of the split: the repeat
        # value is the full-sample mean of 2 Y W
        assert report.values[0] == pytest.approx(np.mean(2.0 * data.y * data.w), rel=1e-12)
        assert report.n_failed_repeats == 0

    def test_remainder_units_go_to_leading_folds(self):
        rng = np.random.default_rng(91)
        data = balanced_data(rng, 11)
        sizes = []
        learner = lambda train: (sizes.append(train.n), constant_policy(1))[1]
        cross_validate(data, learner, folds=5, repeats=1, seed=0,
                       e_hat=np.full(11, 0.5), mu_hat=zero_mu)
        assert sorted(sizes) == [8, 9, 9, 9, 9]

    def test_split_insensitive_learner_gives_identical_repeats(self):
        rng = np.random.default_rng(92)
        data = balanced_data(rng, 20)
        model = fit_ols_per_arm(data, "quadratic")
        mu = lambda pts, arm: predict_matrix(model, pts, arm)
        report = cross_validate(
            data, lambda train: constant_policy(1), folds=5, repeats=3, seed=4, mu_hat=mu
        )
        assert np.ptp(report.values) < 1e-12
        direct = aipw_value_estimate(
            data, np.ones(20, dtype=int), arm_proportion_propensity(data), mu
        )
        assert report.mean == pytest.approx(direct, rel=1e-12)

    def test_default_outcome_plug_in_is_full_data_quadratic_ols(self):
        rng = np.random.default_rng(95)
        data = balanced_data(rng, 30)

        def stump_learner(train):
            return search_tree(train.x, 2.0 * train.y * (2.0 * train.w - 1.0), depth=1)

        def run(mu_hat):
            return cross_validate(data, stump_learner, folds=3, repeats=2, seed=6,
                                  mu_hat=mu_hat).values

        quadratic = partial(predict_matrix, fit_ols_per_arm(data, "quadratic"))
        linear = partial(predict_matrix, fit_ols_per_arm(data, "linear"))
        np.testing.assert_array_equal(run(None), run(quadratic))
        assert not np.array_equal(run(None), run(linear))

    def test_same_seed_reproduces_bitwise(self):
        rng = np.random.default_rng(93)
        data = balanced_data(rng, 30)

        def stump_learner(train):
            gamma = 2.0 * train.y * (2.0 * train.w - 1.0)
            from mbpolicy import search_tree
            return search_tree(train.x, gamma, depth=1)

        a = cross_validate(data, stump_learner, folds=3, repeats=4, seed=17)
        b = cross_validate(data, stump_learner, folds=3, repeats=4, seed=17)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.mean == b.mean and a.std == b.std

    def test_learner_failure_flags_repeat_and_mean_skips_it(self):
        rng = np.random.default_rng(94)
        data = balanced_data(rng, 10)
        calls = {"count": 0}

        def flaky(train):
            calls["count"] += 1
            if calls["count"] == 1:
                raise ValueError("boom")
            return constant_policy(1)

        report = cross_validate(data, flaky, folds=5, repeats=3, seed=0,
                                e_hat=np.full(10, 0.5), mu_hat=zero_mu)
        assert np.isnan(report.values[0])
        assert report.n_failed_repeats == 1
        assert len(report.failures) == 1
        assert report.failures[0].startswith("repeat 0 fold 0: ValueError: boom")
        expected = np.mean(2.0 * data.y * data.w)
        assert report.mean == pytest.approx(expected, rel=1e-12)
        assert report.std == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_unbiasedness_with_known_design(self):
        # randomized design with e = 1/2 and policy I{x1 > 0}: the true value
        # is E[x1] + E[c I{c > 0}] = 0.5; inverse weighting with the true
        # propensity is unbiased, so the replication mean lands within 2 SE
        rng = np.random.default_rng(95)
        estimates = np.empty(500)
        for r in range(500):
            x = rng.normal(size=(200, 1))
            w = (rng.random(200) < 0.5).astype(int)
            c = 2.0 * (x[:, 0] > 0) - 1.0
            y = x[:, 0] + w * c + rng.normal(size=200)
            data = ObservationalDataset(x=x, w=w, y=y, feature_names=("x1",))
            pi = (x[:, 0] > 0).astype(int)
            estimates[r] = aipw_value_estimate(data, pi, np.full(200, 0.5), zero_mu)
        stderr = estimates.std(ddof=1) / np.sqrt(500)
        assert abs(estimates.mean() - 0.5) < 2 * stderr

    def test_report_csv(self, tmp_path):
        report = CrossValReport(
            values=np.array([1.5, float("nan"), 2.5]),
            mean=2.0, std=0.5, folds=5, repeats=3,
            failures=("repeat 1 fold 2: ValueError: x",),
        )
        path = tmp_path / "cv.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "repeat,value"
        assert lines[1] == "0,1.5"
        assert lines[2] == "1,nan"
        assert float(lines[3].split(",")[1]) == 2.5

    def test_validation(self):
        rng = np.random.default_rng(96)
        data = balanced_data(rng, 10)
        learner = lambda train: constant_policy(1)
        with pytest.raises(ValueError, match="folds must be"):
            cross_validate(data, learner, folds=1, repeats=1)
        with pytest.raises(ValueError, match="repeats must be"):
            cross_validate(data, learner, folds=2, repeats=0)
        with pytest.raises(ValueError, match="smaller than folds"):
            cross_validate(data, learner, folds=11, repeats=1)
