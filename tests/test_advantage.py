import re
from functools import partial

import numpy as np
import pytest

from mbpolicy import (
    AdvantageDecomposition,
    ImputedPotentialOutcomes,
    ObservationalDataset,
    advantage_estimate,
    advantage_linear_form,
    aipw_scores,
    aipw_value_estimate,
    cross_validate,
    decompose_advantage,
    estimate_conditional_bias,
    fit_linear_probability,
    fit_mahalanobis,
    fit_ols_per_arm,
    impute_bias_corrected,
    impute_raw,
    match_units,
    predict_matrix,
    search_tree,
)
from mbpolicy.advantage import PROPENSITY_CLIP
from mbpolicy.outcome_models import OutcomeModel

from _oracles import random_dataset, random_tree


def imputed_from(gamma):
    gamma = np.asarray(gamma, dtype=float)
    return ImputedPotentialOutcomes(y0=np.zeros_like(gamma), y1=gamma)


def random_assignments(rng, data):
    from mbpolicy import evaluate_policy

    return evaluate_policy(random_tree(rng, data.x), data.x)


class TestAdvantageEstimate:
    def test_direct_arithmetic(self):
        assert advantage_estimate(imputed_from([2.0, -4.0]), np.array([1, 0])) == 3.0

    def test_zero_scores(self):
        rng = np.random.default_rng(41)
        imputed = imputed_from(np.zeros(10))
        for _ in range(5):
            assert advantage_estimate(imputed, rng.integers(0, 2, 10)) == 0.0

    def test_treat_all_is_mean_gamma(self):
        gamma = np.array([1.0, -2.0, 0.5])
        assert advantage_estimate(imputed_from(gamma), np.ones(3, dtype=int)) == pytest.approx(
            gamma.mean(), abs=1e-15
        )

    def test_antisymmetry_under_complement(self):
        rng = np.random.default_rng(42)
        imputed = imputed_from(rng.normal(size=20))
        pi = rng.integers(0, 2, 20)
        assert advantage_estimate(imputed, pi) == -advantage_estimate(imputed, 1 - pi)

    def test_bounded_by_largest_score(self):
        rng = np.random.default_rng(43)
        gamma = rng.normal(size=30)
        imputed = imputed_from(gamma)
        for _ in range(10):
            estimate = advantage_estimate(imputed, rng.integers(0, 2, 30))
            assert abs(estimate) <= np.max(np.abs(gamma)) + 1e-12

    def test_rejects_nonbinary_assignments(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            advantage_estimate(imputed_from([1.0, 2.0]), np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            advantage_estimate(imputed_from([1.0, 2.0]), np.array([1]))


class TestLinearForm:
    def test_agrees_with_imputation_average(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            n = int(rng.integers(12, 61))
            m = int(rng.choice([1, 2, 5]))
            data = random_dataset(rng, n, int(rng.integers(1, 5)), min_arm=max(m, 2))
            matches = match_units(data, fit_mahalanobis(data.x), m=m)
            pi = random_assignments(rng, data)
            direct = advantage_estimate(impute_raw(data, matches), pi)
            linear = advantage_linear_form(data, matches, pi)
            assert abs(direct - linear) <= 1e-10

    def test_treat_all_weighting(self):
        rng = np.random.default_rng(45)
        data = random_dataset(rng, 30, 2, min_arm=4)
        matches = match_units(data, fit_mahalanobis(data.x), m=3)
        expected = np.mean(
            (2.0 * data.w - 1.0) * (1.0 + matches.k_counts / matches.m) * data.y
        )
        got = advantage_linear_form(data, matches, np.ones(30, dtype=int))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_outcomes(self):
        rng = np.random.default_rng(46)
        base = random_dataset(rng, 20, 2, min_arm=3)
        data = ObservationalDataset(
            x=base.x, w=base.w, y=np.zeros(20), feature_names=base.feature_names
        )
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        assert advantage_linear_form(data, matches, np.ones(20, dtype=int)) == 0.0

    @pytest.mark.parametrize(
        "assignments, message",
        [(np.full(20, 2), "only 0 and 1"), (np.ones(19, dtype=int), "expected")],
    )
    def test_rejects_invalid_assignments(self, assignments, message):
        data = random_dataset(np.random.default_rng(47), 20, 2, min_arm=3)
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        with pytest.raises(ValueError, match=message):
            advantage_linear_form(data, matches, assignments)


def duplicated_covariate_data(rng, half_n, p, y_fn):
    """Every covariate row appears once per arm, so matching discrepancy is zero."""
    rows = rng.normal(size=(half_n, p))
    x = np.vstack([rows, rows])
    w = np.concatenate([np.zeros(half_n, dtype=int), np.ones(half_n, dtype=int)])
    y = y_fn(x, w)
    names = tuple(f"f{j}" for j in range(p))
    return ObservationalDataset(x=x, w=w, y=y, feature_names=names)


class TestDecomposition:
    def test_total_is_derived_from_the_terms(self):
        parts = AdvantageDecomposition(a_bar=0.5, e_m=0.25, b_m=-1.0)
        assert parts.total == 0.5 + 0.25 - 1.0
        with pytest.raises(TypeError):
            AdvantageDecomposition(a_bar=0.5, e_m=0.25, b_m=-1.0, total=9.0)

    def test_pure_noise_is_all_noise_term(self):
        rng = np.random.default_rng(47)
        data = random_dataset(rng, 30, 2, min_arm=4)
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        pi = random_assignments(rng, data)
        parts = decompose_advantage(data, matches, pi, lambda x, w: np.zeros(len(x)))
        assert parts.a_bar == 0.0
        assert parts.b_m == 0.0
        assert parts.total == parts.e_m

    def test_exact_matches_kill_discrepancy_term(self):
        rng = np.random.default_rng(48)
        data = duplicated_covariate_data(
            rng, 12, 2, lambda x, w: x[:, 0] + 0.1 * np.random.default_rng(1).normal(size=len(x))
        )
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        pi = random_assignments(rng, data)

        def arm_free_mu(pts, arm):
            return 2.0 * pts[:, 0] - pts[:, 1]

        parts = decompose_advantage(data, matches, pi, arm_free_mu)
        assert parts.b_m == pytest.approx(0.0, abs=1e-12)

    def test_terms_sum_to_raw_estimate(self):
        rng = np.random.default_rng(49)
        for _ in range(40):
            data = random_dataset(rng, int(rng.integers(12, 50)), 3, min_arm=5)
            matches = match_units(data, fit_mahalanobis(data.x), m=int(rng.choice([1, 5])))
            pi = random_assignments(rng, data)

            def mu(pts, arm):
                return np.sin(pts[:, 0]) + arm * pts[:, 1]

            parts = decompose_advantage(data, matches, pi, mu)
            raw = advantage_estimate(impute_raw(data, matches), pi)
            assert abs(parts.total - raw) <= 1e-10
            assert abs(parts.total - (parts.a_bar + parts.e_m + parts.b_m)) <= 1e-10


class TestConditionalBias:
    def zero_model(self, k):
        return OutcomeModel(
            expansion="linear",
            coef0=np.zeros(k + 1),
            coef1=np.zeros(k + 1),
        )

    def test_zero_model_gives_zero(self):
        rng = np.random.default_rng(50)
        data = random_dataset(rng, 25, 2, min_arm=4)
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        pi = random_assignments(rng, data)
        assert estimate_conditional_bias(data, matches, pi, self.zero_model(2)) == 0.0

    def test_exact_matches_give_zero_for_any_model(self):
        rng = np.random.default_rng(51)
        data = duplicated_covariate_data(rng, 10, 2, lambda x, w: x[:, 0] + w)
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        model = fit_ols_per_arm(data)
        pi = random_assignments(rng, data)
        assert estimate_conditional_bias(data, matches, pi, model) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_correction_identity(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            data = random_dataset(rng, int(rng.integers(20, 60)), 3, min_arm=6)
            matches = match_units(data, fit_mahalanobis(data.x), m=int(rng.choice([1, 5])))
            model = fit_ols_per_arm(data)
            pi = random_assignments(rng, data)
            raw = advantage_estimate(impute_raw(data, matches), pi)
            corrected = advantage_estimate(impute_bias_corrected(data, matches, model), pi)
            bias = estimate_conditional_bias(data, matches, pi, model)
            assert abs(corrected - (raw - bias)) <= 1e-10


class TestStaleMatches:
    @pytest.mark.parametrize("estimator", [
        advantage_linear_form,
        lambda data, matches, pi: decompose_advantage(
            data, matches, pi, lambda x, w: np.zeros(len(x))
        ),
        lambda data, matches, pi: estimate_conditional_bias(
            data, matches, pi, fit_ols_per_arm(data)
        ),
    ], ids=["linear_form", "decomposition", "conditional_bias"])
    def test_matches_of_another_dataset_rejected(self, estimator):
        rng = np.random.default_rng(58)
        data = random_dataset(rng, 20, 2, min_arm=4)
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        shorter = data.subset(np.arange(19))
        with pytest.raises(ValueError, match="stale indices"):
            estimator(shorter, matches, np.ones(19, dtype=int))
        # same length, but unit 0's nearest match now sits in unit 0's own arm
        w = data.w.copy()
        w[matches.matched_sets[0, 0]] = data.w[0]
        flipped = ObservationalDataset(
            x=data.x, w=w, y=data.y, feature_names=data.feature_names
        )
        with pytest.raises(ValueError, match="stale match"):
            estimator(flipped, matches, np.ones(20, dtype=int))


class TestAipwScores:
    def test_zero_residual_leaves_regression_contrast(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(20, 2))
        w = np.array([0, 1] * 10)

        def mu(pts, arm):
            return pts[:, 0] + 2.0 * arm

        y = np.where(w == 1, mu(x, 1), mu(x, 0))
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b"))
        scores = aipw_scores(data, np.full(20, 0.3), mu)
        np.testing.assert_allclose(scores.gamma, np.full(20, 2.0), atol=1e-12)
        assert scores.n_clipped == 0

    def test_half_propensity_zero_regression(self):
        rng = np.random.default_rng(54)
        data = random_dataset(rng, 30, 2, min_arm=3)
        scores = aipw_scores(data, np.full(30, 0.5), lambda pts, arm: np.zeros(len(pts)))
        expected = (2.0 * data.w - 1.0) * 2.0 * data.y
        np.testing.assert_allclose(scores.gamma, expected, atol=1e-12)

    def test_extreme_propensities_clipped_and_counted(self):
        rng = np.random.default_rng(55)
        data = random_dataset(rng, 10, 2, min_arm=2)
        e = np.full(10, 0.5)
        e[0], e[1] = 0.001, 0.9999
        scores = aipw_scores(data, e, lambda pts, arm: np.zeros(len(pts)))
        assert scores.n_clipped == 2
        assert scores.e_hat[0] == 0.01
        assert scores.e_hat[1] == 0.99
        # the clipped value, not the raw one, enters the weight
        expected0 = (data.w[0] - 0.01) / (0.01 * 0.99) * data.y[0]
        assert scores.gamma[0] == pytest.approx(expected0, rel=1e-12)

    def test_rejects_probabilities_outside_unit_interval(self):
        rng = np.random.default_rng(56)
        data = random_dataset(rng, 10, 2, min_arm=2)
        bad = np.full(10, 0.5)
        bad[3] = 1.2
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            aipw_scores(data, bad, lambda pts, arm: np.zeros(len(pts)))

    def test_mean_function_must_return_one_value_per_row(self):
        rng = np.random.default_rng(57)
        data = random_dataset(rng, 12, 2, min_arm=2)
        with pytest.raises(ValueError, match=r"must return 12 values for arm 0, got shape \(\)"):
            aipw_scores(data, np.full(12, 0.4), lambda pt, arm: float(np.atleast_2d(pt)[0, 0]))
        with pytest.raises(ValueError, match=r"got shape \(12, 2\)"):
            decompose_advantage(
                data, match_units(data, fit_mahalanobis(data.x), 1),
                np.ones(12, dtype=int), lambda pts, arm: pts * arm,
            )


def stump_learner(train):
    return search_tree(train.x, 2.0 * train.y * (2.0 * train.w - 1.0), depth=1)


class TestMeanFunctions:
    """A fitted OutcomeModel is itself a mean function, and every estimator checks one alike."""

    def draw(self, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 40, 3, min_arm=8)
        return rng, data, fit_ols_per_arm(data, "quadratic")

    def test_calling_a_model_is_predict_matrix(self):
        _, data, model = self.draw(71)
        for w in (0, 1):
            assert model(data.x, w).tobytes() == predict_matrix(model, data.x, w).tobytes()

    def test_model_and_partial_adapter_give_equal_bytes(self):
        rng, data, model = self.draw(72)
        adapter = partial(predict_matrix, model)
        e_hat = rng.uniform(0.0, 1.0, data.n)
        pi = random_assignments(rng, data)
        direct, adapted = aipw_scores(data, e_hat, model), aipw_scores(data, e_hat, adapter)
        assert direct.gamma.tobytes() == adapted.gamma.tobytes()
        assert direct.e_hat.tobytes() == adapted.e_hat.tobytes()
        assert direct.n_clipped == adapted.n_clipped
        values = [np.float64(aipw_value_estimate(data, pi, e_hat, mu)) for mu in (model, adapter)]
        assert values[0].tobytes() == values[1].tobytes()
        reports = [
            cross_validate(data, stump_learner, folds=3, repeats=2, seed=3, mu_hat=mu)
            for mu in (model, adapter)
        ]
        assert reports[0].values.tobytes() == reports[1].values.tobytes()
        matches = match_units(data, fit_mahalanobis(data.x), 5)
        assert (
            impute_bias_corrected(data, matches, model).gamma.tobytes()
            == impute_bias_corrected(data, matches, adapter).gamma.tobytes()
        )

    @pytest.mark.parametrize("mu, arm, shape", [
        (lambda pts, arm: np.zeros((len(pts), 2)), 0, "(40, 2)"),
        (lambda pts, arm: np.zeros(len(pts) + arm), 1, "(41,)"),
    ], ids=["both-arms", "arm-1"])
    def test_wrong_shape_is_one_error_everywhere(self, mu, arm, shape):
        rng, data, _ = self.draw(73)
        pi = random_assignments(rng, data)
        e_hat = np.full(data.n, 0.5)
        matches = match_units(data, fit_mahalanobis(data.x), 1)
        message = f"mean function must return 40 values for arm {arm}, got shape {shape}"
        for call in (
            lambda: decompose_advantage(data, matches, pi, mu),
            lambda: estimate_conditional_bias(data, matches, pi, mu),
            lambda: impute_bias_corrected(data, matches, mu),
            lambda: aipw_scores(data, e_hat, mu),
            lambda: aipw_value_estimate(data, pi, e_hat, mu),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_wrong_shape_is_a_recorded_fold_failure(self):
        _, data, _ = self.draw(74)
        report = cross_validate(
            data, stump_learner, folds=3, repeats=1, seed=0,
            mu_hat=lambda pts, arm: np.zeros((len(pts), 2)),
        )
        assert report.n_failed_repeats == 1 and len(report.failures) == 3
        for k, failure in enumerate(report.failures):
            pattern = (
                f"repeat 0 fold {k}: ValueError: "
                r"mean function must return (\d+) values for arm 0, got shape \(\1, 2\)"
            )
            assert re.fullmatch(pattern, failure), failure

    def test_conditional_bias_is_the_decomposition_term_of_the_model(self):
        rng, data, model = self.draw(75)
        pi = random_assignments(rng, data)
        for m in (1, 5):
            matches = match_units(data, fit_mahalanobis(data.x), m)
            bias = estimate_conditional_bias(data, matches, pi, model)
            assert bias == decompose_advantage(data, matches, pi, model).b_m


class TestOnePropensityClip:
    def test_every_plug_in_propensity_is_clipped_alike(self):
        rng = np.random.default_rng(76)
        data = random_dataset(rng, 40, 2, min_arm=8)
        e = rng.uniform(0.0, 1.0, data.n)
        e[:4] = [0.0, 0.004, 0.996, 1.0]
        clipped = np.clip(e, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
        assert clipped.min() == 0.01 and clipped.max() == 0.99
        scores = aipw_scores(data, e, lambda pts, arm: np.zeros(len(pts)))
        assert scores.e_hat.tobytes() == clipped.tobytes() and scores.n_clipped == 4
        pi = random_assignments(rng, data)
        mu = lambda pts, arm: pts[:, 0] + arm
        assert aipw_value_estimate(data, pi, e, mu) == aipw_value_estimate(data, pi, clipped, mu)

    def test_linear_probability_fit_is_clipped_into_the_same_range(self):
        # a covariate that separates the arms drives the linear fit past 0 and 1
        x = np.linspace(-1.0, 1.0, 40)[:, None]
        w = (x[:, 0] > 0).astype(np.int64)
        data = ObservationalDataset(x=x, w=w, y=np.zeros(40), feature_names=("a",))
        e = fit_linear_probability(data)
        assert e.min() == PROPENSITY_CLIP and e.max() == 1.0 - PROPENSITY_CLIP
