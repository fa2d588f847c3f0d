import importlib.util
import itertools
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mbpolicy import (
    ObservationalDataset,
    OutcomeModel,
    expand_features,
    fit_lasso_per_arm,
    fit_ols_per_arm,
    predict_matrix,
)
from mbpolicy import outcome_models, simulation
from mbpolicy.outcome_models import (
    _exact_on_support,
    _lasso_path,
    _objective,
    _standardize,
    default_lambda_grid,
)
from mbpolicy.simulation import SimulationSpec, derive_seed, generate

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
        assert predict_matrix(self.affine_model(), np.array([[3.0]]), 0).tolist() == [7.0]
        assert predict_matrix(self.affine_model(), np.array([[3.0]]), 1).tolist() == [1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_matrix(self.affine_model(), np.array([[3.0, 4.0]]), 0)

    def test_invalid_arm(self):
        with pytest.raises(ValueError, match="w must be 0 or 1"):
            predict_matrix(self.affine_model(), np.array([[3.0]]), 2)


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
        assert first.coef0.tobytes() == second.coef0.tobytes()
        assert first.coef1.tobytes() == second.coef1.tobytes()
        assert (first.lambda0, first.lambda1) == (second.lambda0, second.lambda1)

    def test_constant_arm_fits_its_constant(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(60, 3))
        w = np.array([0, 1] * 30)
        y = np.where(w == 0, 2.5, x @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=60))
        data = ObservationalDataset(x=x, w=w, y=y, feature_names=("a", "b", "c"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_lasso_per_arm(data, folds=4, seed=2)
        assert model.lambda0 == 1e-12  # lambda_max of a constant outcome is 0
        assert np.all(model.coef0[1:] == 0.0) and model.coef0[0] == 2.5
        assert model.lambda1 > 1e-12 and np.any(model.coef1[1:] != 0.0)

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

    def test_coordinate_descent_alone_converges(self, monkeypatch):
        # every exact solve rejected: each step must end on CD's own CD_TOL exit
        rng = np.random.default_rng(42)
        x = rng.normal(size=(60, 4))
        y = x @ np.array([1.0, -0.5, 0.25, 0.0]) + rng.normal(size=60)
        xs, _, _ = _standardize(x)
        yc = y - y.mean()
        gram, corr, y2 = lasso_parts(xs, yc)
        grid = default_lambda_grid(x, y)[::10]
        monkeypatch.setattr(outcome_models, "_accepts", lambda *args: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _lasso_path(xs, yc, grid)
        reference = slow_lasso_path(xs, yc, grid)
        # a coefficient's KKT condition holds when it is set; the later moves
        # of the cycle, each below CD_TOL on a unit-variance column, shift its
        # gradient by at most k * CD_TOL
        tol = xs.shape[1] * outcome_models.CD_TOL
        for beta, ref, lam in zip(path, reference, grid):
            assert kkt_violation(gram, corr, beta, lam) <= tol
            obj = _objective(beta, gram @ beta, corr, y2, lam)
            ref_obj = _objective(ref, gram @ ref, corr, y2, lam)
            assert abs(obj - ref_obj) <= tol * max(1.0, abs(ref_obj))
        assert np.count_nonzero(path[-1]) >= 3

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


class TestNoRepeatSolves:
    def test_each_pattern_is_solved_once_per_step(self, monkeypatch):
        # on the rank-deficient eight-covariate fit, active-set moves return
        # to rejected patterns; those are answered from the step's earlier solve
        rows, header = nsw_rows()
        data = ObservationalDataset(
            x=rows[:, 1:9], w=rows[:, 0].astype(int), y=rows[:, 9], feature_names=header[1:9]
        )
        paths, solves = [], []
        lasso_path, solve_pattern = outcome_models._lasso_path, outcome_models._solve_pattern

        def counted_path(xs, yc, lambdas, *factors):
            paths.append(len(lambdas))
            return lasso_path(xs, yc, lambdas, *factors)

        def recorded_solve(gram, corr, y2, lam, signs, *factors):
            solves.append((len(paths), lam, signs.tobytes()))
            return solve_pattern(gram, corr, y2, lam, signs, *factors)

        monkeypatch.setattr(outcome_models, "_lasso_path", counted_path)
        monkeypatch.setattr(outcome_models, "_solve_pattern", recorded_solve)
        fit_lasso_per_arm(data)
        assert len(paths) == 12  # five CV folds and one refit per arm
        assert len(solves) == len(set(solves)) > 1000


def test_non_finite_penalties_rejected():
    data = two_arm_data(
        np.arange(6.0), np.arange(6.0), np.arange(6.0) + 0.5, np.arange(6.0)
    )
    for grid in ([np.nan], [np.inf], [1.0, np.nan, 0.1], [np.inf, 1.0], [-np.inf]):
        with pytest.raises(ValueError, match="lambda grid must be finite"):
            fit_lasso_per_arm(data, lambda_grid=np.array(grid), folds=2)


def eight_covariate_arm_designs():
    """Per-arm quadratic expansions of all eight study covariates (rank-deficient)."""
    rows, header = nsw_rows()
    x, treat, y = rows[:, 1:9], rows[:, 0], rows[:, 9]
    return [(expand_features(x[treat == w], "quadratic"), y[treat == w]) for w in (0, 1)]


def reference_design(kind, seed):
    if kind == "earnings":
        return earnings_design(seed)
    if kind == "gaussian":
        return gaussian_design(seed)
    if kind == "study":
        return study_arm_designs()[seed]
    return eight_covariate_arm_designs()[seed]


class TestStepLoopReference:
    """The step loop against its earlier form, kept in `_oracles`: equal bytes."""

    @pytest.mark.parametrize(
        "kind,seed", TestPatternFirstSteps.DESIGNS + [("eight", arm) for arm in (0, 1)]
    )
    def test_path_bytes_equal(self, kind, seed):
        features, y = reference_design(kind, seed)
        xs, _, _ = _standardize(features)
        yc = y - y.mean()
        grid = default_lambda_grid(features, y)
        path = _lasso_path(xs, yc, grid)
        assert path.tobytes() == _oracles.pattern_first_lasso_path(xs, yc, grid).tobytes()

    @pytest.mark.parametrize("kind,seed", [("gaussian", 0), ("gaussian", 3), ("eight", 0)])
    def test_pattern_solve_equal(self, kind, seed, monkeypatch):
        # every pattern the path solves, the path's patterns with one entry
        # set to -1 or +1 (on these rank-deficient designs some fail each
        # check), random ones, the empty one and lambda = 0; the zero column
        # is one that the off-support check skips
        features, y = reference_design(kind, seed)
        features = np.column_stack([features, np.zeros(len(y))])
        xs, _, _ = _standardize(features)
        yc = y - y.mean()
        gram, corr, y2 = lasso_parts(xs, yc)
        grid = default_lambda_grid(features, y)
        cases = []
        solve_pattern = outcome_models._solve_pattern

        def recorded_solve(gram, corr, y2, lam, signs, *factors):
            cases.append((lam, signs.copy()))
            return solve_pattern(gram, corr, y2, lam, signs, *factors)

        monkeypatch.setattr(outcome_models, "_solve_pattern", recorded_solve)
        path = _lasso_path(xs, yc, grid)
        monkeypatch.undo()
        rng = np.random.default_rng([185, seed])
        k = xs.shape[1]
        for lam, beta in zip(grid[::5], path[::5]):
            for j, sign in itertools.product(range(k), (-1.0, 1.0)):
                signs = np.sign(beta)
                signs[j] = sign
                cases.append((lam, signs))
        cases += [(lam, np.zeros(k)) for lam in (0.0, grid[0], grid[-1])]
        for lam in np.concatenate([[0.0], grid[::7]]):
            cases += [(lam, rng.integers(-1, 2, size=k).astype(float)) for _ in range(6)]
        first_failed = set()
        for lam, signs in cases:
            b, grad, terms = solve_pattern(gram, corr, y2, lam, signs)
            ref_b, ref_grad, ref_value = _oracles.pattern_solve(gram, corr, y2, lam, signs)
            assert b.tobytes() == ref_b.tobytes() and grad.tobytes() == ref_grad.tobytes()
            value = None if terms is None else terms[0] + lam * terms[1]
            assert repr(value) == repr(ref_value)
            on = signs != 0.0
            tol = outcome_models.KKT_TOL * max(1.0, lam)
            if not np.array_equal(np.sign(b), signs):
                first_failed.add("signs")
            elif not np.all(np.abs(grad[on] - lam * signs[on]) <= tol):
                first_failed.add("support KKT")
            else:
                first_failed.add("off-support KKT" if value is None else None)
        assert first_failed == {"signs", "support KKT", "off-support KKT", None}


def lstsq_reference(monkeypatch, data, **kwargs):
    """fit_lasso_per_arm with its fold and refit paths on the lstsq-only step loop of `_oracles`."""
    def lstsq_path(xs, yc, lambdas, factors=None):
        return _oracles.pattern_first_lasso_path(xs, yc, lambdas)

    with monkeypatch.context() as patch:
        patch.setattr(outcome_models, "_lasso_path", lstsq_path)
        return fit_lasso_per_arm(data, **kwargs)


def model_bytes(model):
    return (model.coef0.tobytes() + model.coef1.tobytes()
            + repr((model.lambda0, model.lambda1)).encode())


SIM_DESIGNS = list(
    itertools.product(simulation.SCENARIOS, simulation.MAIN_EFFECTS, simulation.CONTRASTS)
)


class TestFoldRoute:
    """Fold paths solve from cached support factors; every output equals the lstsq route's."""

    @pytest.mark.parametrize("n", [200, 500])
    @pytest.mark.parametrize("design", [0, 3, 7, 10, 14, 19])
    def test_fit_bytes_equal_lstsq_reference(self, design, n, monkeypatch):
        data, _ = generate(SimulationSpec(*SIM_DESIGNS[design], n, 11))
        reference = lstsq_reference(monkeypatch, data)
        factored = []
        gated_inverse = outcome_models._gated_inverse
        monkeypatch.setattr(
            outcome_models, "_gated_inverse",
            lambda sub: factored.append(sub.shape) or gated_inverse(sub),
        )
        model = fit_lasso_per_arm(data)
        assert factored  # the fold paths took the factored route
        assert model_bytes(model) == model_bytes(reference)

    def test_gate_failures_are_solved_by_lstsq(self, monkeypatch):
        # the eight-covariate expansion is rank-deficient, so some supports fail the gate
        rows, header = nsw_rows()
        data = ObservationalDataset(
            x=rows[:, 1:9], w=rows[:, 0].astype(int), y=rows[:, 9], feature_names=header[1:9]
        )
        lstsq, cholesky = np.linalg.lstsq, np.linalg.cholesky
        support_solve, gated_inverse = outcome_models._support_solve, outcome_models._gated_inverse
        lstsq_calls, solves, singular, refused = [], [], [], []

        def counted_lstsq(a, b, rcond=None):
            lstsq_calls.append(a.shape)
            return lstsq(a, b, rcond=rcond)

        def counted_cholesky(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        def counted_gate(sub):
            inverse = gated_inverse(sub)
            if inverse is None:
                refused.append(sub.shape)
            return inverse

        def recorded_solve(gram, on, rhs, factors):
            before = len(lstsq_calls)
            b = support_solve(gram, on, rhs, factors)
            gated = None if factors is None else factors[on.tobytes()] is not None
            solves.append((gated, len(lstsq_calls) - before))
            return b

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(outcome_models, "_gated_inverse", counted_gate)
        monkeypatch.setattr(outcome_models, "_support_solve", recorded_solve)
        fit_lasso_per_arm(data)
        counts = {gated: set() for gated, _ in solves}
        for gated, calls in solves:
            counts[gated].add(calls)
        # fold paths: lstsq exactly for the supports the gate refused; refits: always lstsq
        assert counts == {False: {1}, True: {0}, None: {1}}
        # some refused supports have no Cholesky factor, others one with too small a pivot
        assert len(refused) > len(singular) > 0

    def test_each_fold_path_gets_a_fresh_cache_and_the_refit_none(self, monkeypatch):
        data, _ = generate(SimulationSpec(*SIM_DESIGNS[0], 200, 11))
        lasso_path, caches = outcome_models._lasso_path, []  # caches keeps each dict alive

        def recorded_path(xs, yc, lambdas, factors=None):
            caches.append((factors, None if factors is None else len(factors)))
            return lasso_path(xs, yc, lambdas, factors)

        monkeypatch.setattr(outcome_models, "_lasso_path", recorded_path)
        fit_lasso_per_arm(data)
        assert [factors is None for factors, _ in caches] == ([False] * 5 + [True]) * 2
        folds = [(factors, size) for factors, size in caches if factors is not None]
        assert len({id(factors) for factors, _ in folds}) == 10
        assert all(size == 0 and factors for factors, size in folds)  # empty at entry, filled after

    def test_threads_keep_their_own_route(self):
        # a fold path's cache is its thread's, so no other thread's refit reads it
        datasets = [generate(SimulationSpec(*SIM_DESIGNS[d], 200, 11))[0] for d in (0, 3, 7, 10)]
        serial = [model_bytes(fit_lasso_per_arm(data)) for data in datasets]
        results = {}

        def fit(i):
            results[i] = model_bytes(fit_lasso_per_arm(datasets[i]))

        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(datasets))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(len(datasets))] == serial

    def test_fold_path_that_runs_out_of_cycles_warns(self, monkeypatch):
        # one CD cycle per step: factored fold paths run out of cycles and warn
        # there, as every path does, and each arm's folds are solved once
        (x0, y0), (x1, y1) = gaussian_design(1), gaussian_design(2)
        data = two_arm_data(x0[:, :3], y0, x1[:, :3], y1)
        monkeypatch.setattr(outcome_models, "CD_MAX_CYCLES", 1)
        monkeypatch.setattr(_oracles, "CD_MAX_CYCLES", 1)
        with warnings.catch_warnings(record=True) as reference_caught:
            warnings.simplefilter("always")
            reference = lstsq_reference(monkeypatch, data)
        cv_sse, lasso_path, warn = outcome_models._cv_sse, outcome_models._lasso_path, warnings.warn
        passes, route, on_fold_path = [], [], []

        def counted(features, y_arm, fold_indices, grid):
            passes.append(y_arm.tobytes())
            return cv_sse(features, y_arm, fold_indices, grid)

        def routed_path(xs, yc, lambdas, factors=None):
            route.append(factors is not None)
            return lasso_path(xs, yc, lambdas, factors)

        def recorded_warn(*args, **kwargs):
            on_fold_path.append(route[-1])
            warn(*args, **kwargs)

        monkeypatch.setattr(outcome_models, "_cv_sse", counted)
        monkeypatch.setattr(outcome_models, "_lasso_path", routed_path)
        monkeypatch.setattr(outcome_models, "warnings", SimpleNamespace(warn=recorded_warn))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_lasso_per_arm(data)
        assert any(on_fold_path) and len(caught) == len(on_fold_path)
        assert len(passes) == len(set(passes)) == 2  # one CV pass per arm
        assert model_bytes(model) == model_bytes(reference)
        # the same steps warn; only the last max coefficient change has other digits
        steps = [[str(w.message).split(";")[0] for w in ws] for ws in (caught, reference_caught)]
        assert steps[0] == steps[1]

    @pytest.mark.parametrize("fixture,arm", [
        ("sim-2000", 1), ("design-8", 1), ("s1-1001-mb-lasso-m5", 1), ("s5-3015-mb-lasso-m1", 0),
    ])
    def test_near_tied_arm_keeps_lstsq_penalty(self, fixture, arm, monkeypatch):
        # arms whose two smallest CV errors lie within 1e-6 relative: the one
        # factored CV pass chooses the penalty that the lstsq route chooses
        data, seed = near_tie_fixture(fixture)
        reference = lstsq_reference(monkeypatch, data, seed=seed)
        cv_sse, errors = outcome_models._cv_sse, []
        monkeypatch.setattr(
            outcome_models, "_cv_sse", lambda *args: errors.append(cv_sse(*args)) or errors[-1]
        )
        model = fit_lasso_per_arm(data, seed=seed)
        assert len(errors) == 2  # one CV pass per arm
        first, second = np.partition(errors[arm], 1)[:2]
        assert second - first <= 1e-6 * first  # still a near tie
        assert model_bytes(model) == model_bytes(reference)


def near_tie_fixture(name):
    """(data, lasso seed) of a fit with a near-tied arm.

    The sim-replicate ones are replicate 0 of a method at an experiment seed,
    drawn with `_run_single`'s seed keys.
    """
    if name == "sim-2000":
        return generate(SimulationSpec(1, "linear", "tree", 2000, seed=1010))[0], 0
    if name == "design-8":
        return generate(SimulationSpec(*SIM_DESIGNS[8], 500, 7))[0], 0
    setting, experiment_seed, method = {
        "s1-1001-mb-lasso-m5": (SimulationSpec(1, "linear", "tree", 500), 1001, "mb-lasso-m5"),
        "s5-3015-mb-lasso-m1": (SimulationSpec(5, "nonlinear", "nontree", 500), 3015, "mb-lasso-m1"),
    }[name]
    base = (setting.propensity_scenario, setting.main_effect, setting.contrast)
    dataset_seed = derive_seed("dataset", *base, setting.n, experiment_seed, 0)
    data, _ = generate(replace(setting, seed=dataset_seed))
    return data, derive_seed("method", method, *base, setting.n, experiment_seed, 0)


class TestEveryColumnChecked:
    """The KKT check covers every column, and CD runs on Python floats, at unchanged bytes."""

    @pytest.mark.parametrize(
        "kind,seed", [("earnings", 0), ("gaussian", 0), ("gaussian", 3), ("study", 0), ("eight", 0)]
    )
    def test_zero_variance_column_path(self, kind, seed):
        # a zero-variance column standardizes to a zero column: its breach is 0,
        # so checking every column accepts exactly what checking the live ones did
        features, y = reference_design(kind, seed)
        features = np.column_stack([features, np.zeros(len(y))])
        xs, _, _ = _standardize(features)
        assert not xs[:, -1].any()
        yc = y - y.mean()
        grid = default_lambda_grid(features, y)
        path = _lasso_path(xs, yc, grid)
        assert path.tobytes() == _oracles.pattern_first_lasso_path(xs, yc, grid).tobytes()
        factored = _lasso_path(xs, yc, grid, {})
        gram, corr, _ = lasso_parts(xs, yc)
        assert not factored[:, -1].any()
        for beta, lam in zip(factored, grid):
            assert kkt_violation(gram, corr, beta, lam) <= 1e-8

    def test_fold_paths_in_coordinate_descent_equal_lstsq_reference(self, monkeypatch):
        (x0, y0), (x1, y1) = gaussian_design(3), gaussian_design(4)
        data = two_arm_data(x0[:, :4], y0, x1[:, :4], y1)
        reference = lstsq_reference(monkeypatch, data)
        soft, lasso_path = outcome_models._soft, outcome_models._lasso_path
        route, cycles = [], {True: 0, False: 0}

        def routed_path(xs, yc, lambdas, factors=None):
            route.append(factors is not None)
            return lasso_path(xs, yc, lambdas, factors)

        def recording_soft(value, threshold):
            cycles[route[-1]] += 1
            return soft(value, threshold)

        monkeypatch.setattr(outcome_models, "_lasso_path", routed_path)
        monkeypatch.setattr(outcome_models, "_soft", recording_soft)
        model = fit_lasso_per_arm(data)
        assert cycles[True] > 0 and cycles[False] > 0  # CD ran on fold and refit paths
        assert model_bytes(model) == model_bytes(reference)

    @pytest.mark.parametrize("kind,seed", [("gaussian", 3), ("gaussian", 7), ("study", 1)])
    def test_coordinate_descent_alone_equals_plain_cycles(self, kind, seed, monkeypatch):
        # every exact solve rejected, so each step's iterate is CD's own: its
        # bytes are those of numpy-scalar cycles from the same warm start
        features, y = reference_design(kind, seed)
        features = np.column_stack([np.zeros(len(y)), features])
        xs, _, _ = _standardize(features)
        yc = y - y.mean()
        grid = default_lambda_grid(features, y)[::10]
        monkeypatch.setattr(outcome_models, "_accepts", lambda *args: False)
        path = _lasso_path(xs, yc, grid)
        assert path.tobytes() == slow_lasso_path(xs, yc, grid).tobytes()
