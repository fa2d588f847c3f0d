import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from mbpolicy import (
    ObservationalDataset,
    OutcomeModel,
    expand_features,
    fit_lasso_per_arm,
    fit_ols_per_arm,
    predict,
    predict_matrix,
)
from mbpolicy import outcome_models
from mbpolicy.outcome_models import (
    _exact_on_support,
    _lasso_path,
    _objective,
    _standardize,
    default_lambda_grid,
)

import _oracles
from _oracles import cd_exact_lasso_path, slow_lasso_path


def two_arm_data(x0, y0, x1, y1):
    x0, x1 = np.atleast_2d(np.asarray(x0, dtype=float)), np.atleast_2d(np.asarray(x1, dtype=float))
    if x0.shape[0] == 1 and len(y0) > 1:
        x0 = x0.T
    if x1.shape[0] == 1 and len(y1) > 1:
        x1 = x1.T
    names = tuple(f"f{j}" for j in range(x0.shape[1]))
    return ObservationalDataset(
        x=np.vstack([x0, x1]),
        w=np.concatenate([np.zeros(len(y0), dtype=int), np.ones(len(y1), dtype=int)]),
        y=np.concatenate([y0, y1]).astype(float),
        feature_names=names,
    )


class TestExpansion:
    def test_linear_is_passthrough(self):
        x = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(expand_features(x, "linear"), x)

    def test_quadratic_order(self):
        # columns: x1, x2, x1^2, x2^2, x1*x2
        out = expand_features(np.array([[1.0, 2.0]]), "quadratic")
        np.testing.assert_array_equal(out, [[1.0, 2.0, 1.0, 4.0, 2.0]])

    def test_unknown_expansion(self):
        with pytest.raises(ValueError, match="unknown expansion"):
            expand_features(np.ones((2, 2)), "cubic")


class TestOls:
    def test_exactly_linear_arm_recovered(self):
        x0, x1 = np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 2.5])
        data = two_arm_data(x0, 1 + 2 * x0, x1, 1 + 2 * x1)
        model = fit_ols_per_arm(data)
        np.testing.assert_allclose(model.coef0, [1.0, 2.0], atol=1e-8)
        np.testing.assert_allclose(model.coef1, [1.0, 2.0], atol=1e-8)
        assert model.lambda0 == model.lambda1 == 0.0
        # training points are interpolated exactly
        np.testing.assert_allclose(predict_matrix(model, data.x, 1), 1 + 2 * data.x[:, 0], atol=1e-8)

    def test_constant_outcome_per_arm(self):
        x = np.linspace(0, 1, 5)
        data = two_arm_data(x, np.full(5, 3.0), x + 0.1, np.full(5, 5.0))
        model = fit_ols_per_arm(data)
        np.testing.assert_allclose(model.coef0, [3.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(model.coef1, [5.0, 0.0], atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        w = np.array([0, 1] * 50)
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b", "c", "d"))
        for expansion in ("linear", "quadratic"):
            model = fit_ols_per_arm(data, expansion)
            for arm in (0, 1):
                idx = data.arm_indices(arm)
                design = np.hstack(
                    [np.ones((len(idx), 1)), expand_features(x[idx], expansion)]
                )
                residual = y[idx] - predict_matrix(model, x[idx], arm)
                np.testing.assert_allclose(design.T @ residual, 0.0, atol=1e-8)

    def test_small_arm_rejected(self):
        data = two_arm_data([0.0, 1.0], [1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="arm 0 has 2"):
            fit_ols_per_arm(data)


class TestPredict:
    def affine_model(self):
        return OutcomeModel(
            expansion="linear",
            coef0=np.array([1.0, 2.0]),
            coef1=np.array([4.0, -1.0]),
        )

    def test_affine_evaluation(self):
        assert predict(self.affine_model(), [3.0], 0) == 7.0
        assert predict(self.affine_model(), [3.0], 1) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(self.affine_model(), [3.0, 4.0], 0)

    def test_invalid_arm(self):
        with pytest.raises(ValueError, match="w must be 0 or 1"):
            predict(self.affine_model(), [3.0], 2)

    def test_text_round_trip(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        w = np.array([0, 1] * 30)
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b", "c"))
        model = fit_lasso_per_arm(data, folds=3, seed=5)
        restored = OutcomeModel.from_text(model.to_text())
        pts = rng.normal(size=(10, 3))
        for arm in (0, 1):
            np.testing.assert_array_equal(
                predict_matrix(model, pts, arm), predict_matrix(restored, pts, arm)
            )
        assert restored.lambda0 == model.lambda0


def symmetric_single_feature_arm(slope, intercept, scale=0.7):
    x = scale * np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0])
    return x, slope * x + intercept


class TestLasso:
    def test_huge_penalty_shrinks_to_arm_means(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=40) + 3.0
        w = np.array([0, 1] * 20)
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b"))
        model = fit_lasso_per_arm(data, lambda_grid=np.array([1e6]), folds=4)
        for arm, coef in ((0, model.coef0), (1, model.coef1)):
            np.testing.assert_allclose(coef[1:], 0.0, atol=1e-12)
            assert coef[0] == pytest.approx(y[data.arm_indices(arm)].mean(), abs=1e-12)

    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(80, 2))
        w = np.array([0, 1] * 40)
        y = 1.0 + x[:, 0] - 0.5 * x[:, 1] + 0.2 * x[:, 0] * x[:, 1] + 0.1 * rng.normal(size=80)
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b"))
        model = fit_lasso_per_arm(data, lambda_grid=np.array([0.0]), folds=4)
        for arm, coef in ((0, model.coef0), (1, model.coef1)):
            idx = data.arm_indices(arm)
            design = np.hstack([np.ones((len(idx), 1)), expand_features(x[idx], "quadratic")])
            reference, *_ = np.linalg.lstsq(design, y[idx], rcond=None)
            np.testing.assert_allclose(coef, reference, atol=1e-6)

    def test_analytic_soft_threshold_solution(self):
        # symmetric design makes the linear and squared columns exactly uncorrelated,
        # so the penalized slope has the closed form sign(b) * max(|b| - lambda, 0)
        x_arm, y0 = symmetric_single_feature_arm(slope=3.0, intercept=0.0)
        _, y1 = symmetric_single_feature_arm(slope=3.0, intercept=10.0)
        data = two_arm_data(x_arm, y0, x_arm, y1)
        model = fit_lasso_per_arm(data, lambda_grid=np.array([1.0]), folds=2)
        sd = x_arm.std()
        ls_slope = 3.0 * sd  # least-squares slope of the standardized column
        expected_std_slope = np.sign(ls_slope) * max(abs(ls_slope) - 1.0, 0.0)
        for coef, ybar in ((model.coef0, 0.0), (model.coef1, 10.0)):
            assert coef[1] * sd == pytest.approx(expected_std_slope, abs=1e-6)
            assert coef[2] == pytest.approx(0.0, abs=1e-8)  # squared column stays out
            assert coef[0] == pytest.approx(ybar, abs=1e-6)

    def test_path_start_zeroes_everything(self):
        rng = np.random.default_rng(35)
        features = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        grid = default_lambda_grid(features, y)
        assert len(grid) == 100
        assert grid[-1] / grid[0] == pytest.approx(1e-4, rel=1e-9)
        assert np.all(np.diff(grid) < 0)
        xs, _, _ = _standardize(features)
        path = _lasso_path(xs, y - y.mean(), grid[:1])
        np.testing.assert_array_equal(path[0], np.zeros(5))

    def test_sparsity_grows_with_penalty(self):
        rng = np.random.default_rng(36)
        hits = 0
        trials = 40
        for _ in range(trials):
            features = rng.normal(size=(50, 6))
            y = features @ rng.normal(size=6) * 0.5 + rng.normal(size=50)
            xs, _, _ = _standardize(features)
            grid = default_lambda_grid(features, y)[::10]
            path = _lasso_path(xs, y - y.mean(), grid)
            zeros = np.sum(path == 0.0, axis=1)
            if np.all(np.diff(zeros) <= 0):
                hits += 1
        assert hits / trials >= 0.95

    def test_cv_selection_deterministic(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(60, 3))
        y = x @ np.array([1.0, -2.0, 0.0]) + rng.normal(size=60)
        w = np.array([0, 1] * 30)
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b", "c"))
        first = fit_lasso_per_arm(data, folds=5, seed=9)
        second = fit_lasso_per_arm(data, folds=5, seed=9)
        assert first.to_text() == second.to_text()

    def test_grid_validation(self):
        data = two_arm_data(
            np.arange(6.0), np.arange(6.0), np.arange(6.0) + 0.5, np.arange(6.0)
        )
        with pytest.raises(ValueError, match="empty"):
            fit_lasso_per_arm(data, lambda_grid=np.array([]), folds=2)
        with pytest.raises(ValueError, match="descending"):
            fit_lasso_per_arm(data, lambda_grid=np.array([0.1, 1.0]), folds=2)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_lasso_per_arm(data, lambda_grid=np.array([-0.5]), folds=2)

    def test_folds_larger_than_arm_rejected(self):
        data = two_arm_data(
            np.arange(4.0), np.arange(4.0), np.arange(8.0), np.arange(8.0)
        )
        with pytest.raises(ValueError, match="arm 0 has 4"):
            fit_lasso_per_arm(data, folds=5)


def earnings_design(seed, n=120):
    """Quadratic expansion of (flag, zero-inflated earnings, schooling) and an outcome.

    The 0/1 flag and its square are the same column; earnings and schooling
    are nearly collinear with their squares, as on the job-training study.
    """
    rng = np.random.default_rng(seed)
    flag = (rng.random(n) < 0.4).astype(float)
    worked = rng.random(n) < 0.25
    amount = np.round(np.exp(8.5 + 0.8 * rng.standard_normal(n)), 2)
    earnings = np.where(worked, amount, 0.0)
    schooling = np.clip(np.round(rng.normal(12.0, 1.2, n)), 3, 18)
    x = np.column_stack([flag, earnings, schooling])
    y = 1000 + 200 * flag + 0.5 * earnings + 300 * schooling + 3000 * rng.standard_normal(n)
    y = np.where(rng.random(n) < 0.3, 0.0, y)
    return expand_features(x, "quadratic"), y


def lasso_parts(xs, yc):
    n = len(yc)
    return xs.T @ xs / n, xs.T @ yc / n, float(yc @ yc) / n


def kkt_violation(gram, corr, beta, lam):
    """Largest breach of the lasso optimality conditions, over max(1, lambda)."""
    grad = corr - gram @ beta
    on = beta != 0.0
    live = np.diag(gram) > 0.0
    breach = np.concatenate(
        [
            np.abs(grad[on] - lam * np.sign(beta[on])),
            np.abs(grad[live & ~on]) - lam,
        ]
    )
    return max(float(np.max(breach, initial=0.0)), 0.0) / max(1.0, lam)


class TestLassoExactSolve:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_coordinate_descent_oracle(self, seed):
        features, y = earnings_design(seed)
        xs, _, _ = _standardize(features)
        yc = y - y.mean()
        gram, corr, y2 = lasso_parts(xs, yc)
        live = np.flatnonzero(np.diag(gram) > 0.0)
        duplicate = [
            j for j in live if any(np.array_equal(xs[:, j], xs[:, i]) for i in live if i < j)
        ]
        assert duplicate  # the flag and its square
        distinct = [j for j in live if j not in duplicate]
        assert np.linalg.cond(gram[np.ix_(distinct, distinct)]) >= 1e3
        grid = default_lambda_grid(features, y)[::10]
        path = _lasso_path(xs, yc, grid)
        reference = slow_lasso_path(xs, yc, grid)
        for beta, ref, lam in zip(path, reference, grid):
            assert kkt_violation(gram, corr, beta, lam) <= 1e-8
            obj = _objective(beta, gram @ beta, corr, y2, lam)
            ref_obj = _objective(ref, gram @ ref, corr, y2, lam)
            assert obj <= ref_obj + 1e-10 * max(1.0, abs(ref_obj))
            fit, ref_fit = xs @ beta, xs @ ref
            assert np.linalg.norm(fit - ref_fit) <= 1e-6 * np.linalg.norm(ref_fit)

    def test_rejected_sign_pattern_leaves_exact_zero(self, monkeypatch):
        # correlated columns: column 1 is active at grid[20] and leaves at grid[21]
        rng = np.random.default_rng(183)
        base = rng.normal(size=(30, 1))
        x = 0.95 * base + 0.3 * rng.normal(size=(30, 6))
        y = x @ rng.normal(size=6) + 0.5 * rng.normal(size=30)
        xs, _, _ = _standardize(x)
        yc = y - y.mean()
        gram, corr, _ = lasso_parts(xs, yc)
        grid = default_lambda_grid(x, y)[20:22]

        solves = []
        lstsq = np.linalg.lstsq

        def spy(a, b, rcond=None):
            result = lstsq(a, b, rcond=rcond)
            solves.append(result[0])
            return result

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        warm = _lasso_path(xs, yc, grid[:1])[0]
        first_step_solves = len(solves)
        solves.clear()
        path = _lasso_path(xs, yc, grid)
        second_step = solves[first_step_solves:]

        on = warm != 0.0
        assert on[1] and path[1][1] == 0.0
        np.testing.assert_array_equal(path[0], warm)
        # the first exact solve keeps the warm-start support and flips a sign
        assert len(second_step) >= 2 and len(second_step[0]) == on.sum()
        assert np.any(np.sign(second_step[0]) != np.sign(warm[on]))
        assert kkt_violation(gram, corr, path[1], grid[1]) <= outcome_models.KKT_TOL
        # the support is the warm start's less column 1; every other entry is exactly 0.0
        np.testing.assert_array_equal(path[1] != 0.0, on & (np.arange(6) != 1))

    def test_exact_solve_checks(self):
        # column 2 is column 0 plus column 1, so with all three positive the
        # support equations have no exact solution and least squares misses KKT
        rng = np.random.default_rng(39)
        a, d = rng.normal(size=50), rng.normal(size=50)
        x = np.column_stack([a, d, a + d, rng.normal(size=50)])
        y = a + d + 0.3 * rng.normal(size=50)
        xs, _, _ = _standardize(x)
        yc = y - y.mean()
        gram, corr, y2 = lasso_parts(xs, yc)
        lam = 0.05
        dependent = np.array([1.0, 1.0, 1.0, 0.0])
        assert _exact_on_support(gram, corr, y2, lam, dependent, np.inf) is None

        beta = _lasso_path(xs, yc, np.array([lam]))[0]
        signs = np.sign(beta)
        best = _objective(beta, gram @ beta, corr, y2, lam)
        exact = _exact_on_support(gram, corr, y2, lam, signs, best)
        assert exact is not None and np.all(exact[signs == 0.0] == 0.0)
        assert kkt_violation(gram, corr, exact, lam) <= outcome_models.KKT_TOL
        # a ceiling below the optimum rejects even the verified solution
        assert _exact_on_support(gram, corr, y2, lam, signs, best - 1e-6) is None

    def test_unconverged_step_warns(self, monkeypatch):
        features, y = earnings_design(0)
        xs, _, _ = _standardize(features)
        monkeypatch.setattr(outcome_models, "CD_MAX_CYCLES", 1)
        with pytest.warns(
            RuntimeWarning,
            match=r"lasso penalty step \d+ \(lambda=[0-9.e+-]+\) did not converge in 1 "
            r"cycles; last max coefficient change [0-9.e+-]+",
        ):
            path = _lasso_path(xs, y - y.mean(), default_lambda_grid(features, y)[::10])
        assert path.shape == (10, features.shape[1]) and np.all(np.isfinite(path))

    def test_well_conditioned_fit_is_silent(self):
        rng = np.random.default_rng(38)
        x = rng.normal(size=(80, 3))
        y = x @ np.array([1.0, -0.5, 0.0]) + rng.normal(size=80)
        data = ObservationalDataset(
            x=x, w=np.array([0, 1] * 40), y=y, feature_names=("a", "b", "c")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_lasso_per_arm(data, folds=4, seed=3)


def nsw_rows():
    """Rows of the benchmark's study-shaped file (seed 0), in its HEADER order."""
    path = Path(__file__).resolve().parents[1] / "bench" / "nsw_shaped.py"
    spec = importlib.util.spec_from_file_location("nsw_shaped", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate_rows(0), module.HEADER


def gaussian_design(seed):
    """A small correlated Gaussian design whose outcome uses a few of its columns.

    Every third seed makes the last column the sum of the first two, so some
    supports are linearly dependent.
    """
    rng = np.random.default_rng([184, seed])
    n, k = int(rng.integers(25, 120)), int(rng.integers(3, 13))
    x = rng.normal(size=(n, 1)) * rng.uniform(0.0, 1.0) + rng.normal(size=(n, k))
    if seed % 3 == 0:
        x[:, -1] = x[:, 0] + x[:, 1]
    coef = np.where(rng.random(k) < 0.5, rng.normal(size=k), 0.0)
    return x, x @ coef + rng.uniform(0.2, 2.0) * rng.normal(size=n)


def study_arm_designs():
    """Per-arm quadratic expansions of age, education, re74 and re75 (the study-learn fit)."""
    rows, header = nsw_rows()
    x = rows[:, [header.index(c) for c in ("age", "education", "re74", "re75")]]
    treat, y = rows[:, header.index("treat")], rows[:, header.index("re78")]
    return [(expand_features(x[treat == w], "quadratic"), y[treat == w]) for w in (0, 1)]


class TestPatternFirstSteps:
    """The step loop against the CD-then-exact oracle, which solves only CD's sign changes."""

    DESIGNS = (
        [("earnings", seed) for seed in range(3)]
        + [("gaussian", seed) for seed in range(24)]
        + [("study", arm) for arm in (0, 1)]
    )

    @pytest.mark.parametrize("kind,seed", DESIGNS)
    def test_matches_cd_exact_oracle(self, kind, seed, monkeypatch):
        if kind == "earnings":
            features, y = earnings_design(seed)
        elif kind == "gaussian":
            features, y = gaussian_design(seed)
        else:
            features, y = study_arm_designs()[seed]
        xs, _, _ = _standardize(features)
        yc = y - y.mean()
        gram, corr, y2 = lasso_parts(xs, yc)
        grid = default_lambda_grid(features, y)

        accepted = set()

        def spy(gram, corr, y2, lam, signs, ceiling):
            exact = _exact_on_support(gram, corr, y2, lam, signs, ceiling)
            if exact is not None:
                accepted.add(lam)
            return exact

        monkeypatch.setattr(_oracles, "_exact_on_support", spy)
        reference = cd_exact_lasso_path(xs, yc, grid)
        path = _lasso_path(xs, yc, grid)
        assert accepted
        for beta, ref, lam in zip(path, reference, grid):
            if lam in accepted:
                np.testing.assert_array_equal(beta, ref)
                continue
            assert kkt_violation(gram, corr, beta, lam) <= 1e-8
            obj = _objective(beta, gram @ beta, corr, y2, lam)
            ref_obj = _objective(ref, gram @ ref, corr, y2, lam)
            assert obj <= ref_obj + 1e-10 * max(1.0, abs(ref_obj))

    def test_warm_pattern_ends_step_without_coordinate_descent(self, monkeypatch):
        # on a fine grid most steps keep the previous support and signs, so
        # their first exact solve verifies and no CD cycle runs
        features, y = study_arm_designs()[0]
        xs, _, _ = _standardize(features)
        grid = default_lambda_grid(features, y)
        cd_penalties = set()
        soft = outcome_models._soft

        def recording_soft(value, threshold):
            cd_penalties.add(threshold)
            return soft(value, threshold)

        monkeypatch.setattr(outcome_models, "_soft", recording_soft)
        _lasso_path(xs, y - y.mean(), grid)
        assert len(cd_penalties) < len(grid) // 2

    def test_all_study_covariates_fit_silently_and_meet_kkt(self):
        # the quadratic expansion of all eight covariates is rank-deficient
        # (every 0/1 column equals its square); no penalty step may warn
        rows, header = nsw_rows()
        x, w, y = rows[:, 1:9], rows[:, 0].astype(int), rows[:, 9]
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=header[1:9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_lasso_per_arm(data)
        for arm, coef, lam in ((0, model.coef0, model.lambda0), (1, model.coef1, model.lambda1)):
            features = expand_features(x[w == arm], "quadratic")
            xs, _, scales = _standardize(features)
            gram, corr, _ = lasso_parts(xs, y[w == arm] - y[w == arm].mean())
            assert kkt_violation(gram, corr, coef[1:] * scales, lam) <= 1e-8
