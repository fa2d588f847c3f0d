import numpy as np
import pytest

from mbpolicy import (
    AdvantageDecomposition,
    ImputedPotentialOutcomes,
    ObservationalDataset,
    advantage_estimate,
    advantage_linear_form,
    aipw_scores,
    decompose_advantage,
    estimate_conditional_bias,
    fit_mahalanobis,
    fit_ols_per_arm,
    impute_bias_corrected,
    impute_raw,
    match_units,
)
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
