"""Per-arm outcome regressions used for bias correction and evaluation plug-ins.

Two fitting routes: ordinary least squares on (1, X), and lasso on the
quadratic expansion (1, X, squares, pairwise interactions) along a
warm-started descending penalty grid, the penalty chosen by seeded k-fold
cross-validation. Each penalty step first solves the lasso exactly on the
support and signs of its warm start (the previous step's solution), with the
warm start's objective at the new penalty as a ceiling. That objective is
quad + lambda * l1, and a step that ends on an exact solve hands its quad and
l1 on, so the next step's ceiling costs one multiply-add. If that solution is
not verified, cyclic coordinate descent (CD) with soft-thresholding runs, and
after each cycle one more sign pattern is solved: the CD iterate's signs when
they changed, else one active-set move from the last rejected solve (drop the
coefficient that first crosses zero, or add the worst KKT violator). A step's
coefficients are the first KKT-verified exact solution found, and CD converged
to CD_TOL otherwise; a step that runs out of CD_MAX_CYCLES issues a
RuntimeWarning.

CV folds are plain seeded shuffles (not treatment-stratified; fits are
per-arm, so stratification has nothing to act on).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ObservationalDataset, _check_choice, _check_int, _freeze

__all__ = [
    "OutcomeModel",
    "expand_features",
    "fit_ols_per_arm",
    "fit_lasso_per_arm",
    "predict_matrix",
]

CD_TOL = 1e-7          # stop a penalty step when max coefficient change is below this
CD_MAX_CYCLES = 10_000
KKT_TOL = 1e-9         # KKT tolerance of an exact support solve, times max(1, lambda)
GRID_SIZE = 100
GRID_RATIO = 1e-4      # smallest grid entry = GRID_RATIO * lambda_max


def expand_features(x: np.ndarray, expansion: str) -> np.ndarray:
    """Expanded design without intercept column.

    ``linear``    -> (x_1, ..., x_p)
    ``quadratic`` -> (x_1, ..., x_p, x_1^2, ..., x_p^2, x_j x_k for j < k)
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if expansion == "linear":
        return x
    if expansion == "quadratic":
        j, k = np.triu_indices(x.shape[1], 1)  # pairs j < k in row-major order
        return np.hstack([x, x**2, x[:, j] * x[:, k]])
    raise ValueError(f"unknown expansion {expansion!r}")


@dataclass(frozen=True)
class OutcomeModel:
    """Per-arm regression fits on a shared feature expansion.

    Coefficient vectors carry the intercept first and live on the original
    (unstandardized) feature scale. ``lambda0`` and ``lambda1`` are the
    selected penalties, 0 for OLS.
    """

    expansion: str
    coef0: np.ndarray
    coef1: np.ndarray
    lambda0: float = 0.0
    lambda1: float = 0.0

    def __post_init__(self) -> None:
        coef0 = np.asarray(self.coef0, dtype=float)
        coef1 = np.asarray(self.coef1, dtype=float)
        if coef0.ndim != 1 or coef0.shape != coef1.shape:
            raise ValueError("coef0 and coef1 must be vectors of equal length")
        _freeze(self, coef0=coef0, coef1=coef1)

    @property
    def n_expanded(self) -> int:
        return self.coef0.shape[0] - 1


def predict_matrix(model: OutcomeModel, x: np.ndarray, w: int) -> np.ndarray:
    """Arm-w predictions for every row of x."""
    w = _check_choice("w", w, (0, 1))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    features = expand_features(x, model.expansion)
    if features.shape[1] != model.n_expanded:
        raise ValueError(
            f"dimension mismatch: model expects {model.n_expanded} expanded "
            f"features, got {features.shape[1]}"
        )
    coef = model.coef1 if w == 1 else model.coef0
    return coef[0] + features @ coef[1:]


def _arm_views(data: ObservationalDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (data.x[data.arm_indices(w)], data.y[data.arm_indices(w)]) for w in (0, 1)
    ]


def fit_ols_per_arm(
    data: ObservationalDataset, expansion: str = "linear"
) -> OutcomeModel:
    """Separate least-squares fit per arm; minimum-norm solution if rank-deficient."""
    for w in (0, 1):
        n_w = int(np.sum(data.w == w))
        if n_w < data.p + 2:
            raise ValueError(
                f"arm {w} has {n_w} units, need >= p+2 = {data.p + 2} for OLS"
            )
    coefs = []
    for x_arm, y_arm in _arm_views(data):
        design = np.hstack([np.ones((len(y_arm), 1)), expand_features(x_arm, expansion)])
        coef, *_ = np.linalg.lstsq(design, y_arm, rcond=None)
        coefs.append(coef)
    return OutcomeModel(expansion=expansion, coef0=coefs[0], coef1=coefs[1])


def default_lambda_grid(features: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geometric grid of GRID_SIZE penalties from lambda_max down to GRID_RATIO*lambda_max.

    lambda_max is the smallest penalty zeroing every coefficient:
    max_j |x_j'(y - ybar)| / n on standardized columns.
    """
    xs, _, _ = _standardize(features)
    yc = y - y.mean()
    lam_max = float(np.max(np.abs(xs.T @ yc)) / len(y)) if len(y) else 0.0
    if lam_max <= 0.0:
        lam_max = 1e-12  # degenerate arm (constant outcome); any penalty is equivalent
    return lam_max * np.geomspace(1.0, GRID_RATIO, GRID_SIZE)


def _soft(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _fit_terms(
    beta: np.ndarray, gram_beta: np.ndarray, corr: np.ndarray, y2: float
) -> tuple[float, float]:
    """(quad, l1) of beta: its objective at penalty lam is quad + lam * l1."""
    quad = 0.5 * (y2 - 2.0 * float(corr @ beta) + float(beta @ gram_beta))
    return quad, float(abs(beta).sum())


def _objective(
    beta: np.ndarray, gram_beta: np.ndarray, corr: np.ndarray, y2: float, lam: float
) -> float:
    """(1/(2n))||yc - xs beta||^2 + lam ||beta||_1 from the Gram-form pieces."""
    quad, l1 = _fit_terms(beta, gram_beta, corr, y2)
    return quad + lam * l1


def _solve_pattern(
    gram: np.ndarray,
    corr: np.ndarray,
    y2: float,
    lam: float,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[float, float] | None]:
    """The exact solve of `_exact_on_support`: (b, gradient corr - G b, terms).

    terms is b's `_fit_terms` if sign(b) == signs and the KKT conditions
    hold, else None; `_accepts` compares the objective they give with a
    ceiling. The checks run in that order and stop at the first that fails.
    """
    on = signs.nonzero()[0]
    b = np.zeros(len(signs))
    if len(on):
        b[on] = np.linalg.lstsq(
            gram.take(on, 0).take(on, 1), corr[on] - lam * signs[on], rcond=None
        )[0]
    gram_b = gram @ b
    grad = corr - gram_b
    if not (np.sign(b) == signs).all():
        return b, grad, None
    # the breach is |grad - lam s| on the support and |grad| off it (lam is
    # finite); a support entry within tol is also within lam + tol, so the
    # off-support bound can be checked on every live column
    tol = KKT_TOL * max(1.0, lam)
    breach = abs(grad - lam * signs)
    if not (
        (breach[on] <= tol).all() and (breach[gram.diagonal() > 0.0] <= lam + tol).all()
    ):
        return b, grad, None
    return b, grad, _fit_terms(b, gram_b, corr, y2)


def _accepts(terms: tuple[float, float] | None, lam: float, ceiling: float) -> bool:
    """Whether a checked solve's objective at lam is at most ``ceiling`` (1e-10 slack)."""
    if terms is None:
        return False
    quad, l1 = terms
    return quad + lam * l1 <= ceiling + 1e-10 * max(1.0, abs(ceiling))


def _exact_on_support(
    gram: np.ndarray,
    corr: np.ndarray,
    y2: float,
    lam: float,
    signs: np.ndarray,
    ceiling: float,
) -> np.ndarray | None:
    """The lasso solution with sign pattern ``signs``, or None if it is not verified.

    Solves G[A,A] b = corr[A] - lam signs[A] on the support A = {signs != 0}
    by least squares, so a rank-deficient support does not raise. b (zero off
    A) is returned only if sign(b) == signs, the KKT conditions hold to
    KKT_TOL * max(1, lam) on A and on the live columns off A, and its objective
    is at most ``ceiling`` (with the 1e-10 relative slack of the CD check).
    """
    b, _, terms = _solve_pattern(gram, corr, y2, lam, signs)
    return b if _accepts(terms, lam, ceiling) else None


def _moved_pattern(
    beta: np.ndarray,
    signs: np.ndarray,
    b: np.ndarray,
    grad: np.ndarray,
    lam: float,
    live: np.ndarray,
) -> np.ndarray | None:
    """One active-set move away from the rejected pattern ``signs`` with solve ``b``.

    If a support coefficient of b has the wrong sign, drop the one that first
    reaches zero on the segment from ``beta`` to b. Otherwise add the live
    column off the support with the largest KKT breach |grad| - lam, with the
    gradient's sign. None if neither applies.
    """
    support = signs != 0.0
    flipped = np.flatnonzero(support & (np.sign(b) != signs))
    moved = signs.copy()
    if len(flipped):
        start, end = beta[flipped], b[flipped]
        # the fraction of the way to b where each one is zero; 0 for one that
        # is already zero or of the wrong sign at beta
        reach = np.zeros(len(flipped))
        inside = start * signs[flipped] > 0.0
        reach[inside] = start[inside] / (start[inside] - end[inside])
        moved[flipped[np.argmin(reach)]] = 0.0
        return moved
    breach = np.where(live & ~support, np.abs(grad) - lam, 0.0)
    j = int(np.argmax(breach))
    if breach[j] <= KKT_TOL * max(1.0, lam):
        return None
    moved[j] = np.sign(grad[j])
    return moved


def _lasso_path(xs: np.ndarray, yc: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Lasso solutions for centered data along a descending penalty grid.

    Objective: (1/(2n))||yc - xs b||^2 + lambda ||b||_1. Each step first tries
    `_exact_on_support` with the warm start's signs, its objective at the
    new penalty as the ceiling; a verified solution ends the step with no
    CD cycle. The ceiling is quad + lambda * l1 from the warm start's
    `_fit_terms`, carried from the solve that ended the previous step; only
    after a step that CD ended are they formed from G beta again, and only
    when the warm solve passed its checks. The CD state (G beta and the
    step's solved patterns) is built only for a step that CD enters. There,
    Gram-cached coordinate descent runs, the penalized objective asserted
    non-increasing on every full cycle, and each cycle that misses CD_TOL
    tries one pattern: the iterate's signs if they changed since the last
    pattern taken from CD (at first the warm start's), else
    `_moved_pattern` of the last rejected solve. A pattern met again in the
    same step reuses its solve, compared with the new ceiling, instead of
    solving again. A verified solution ends the step. A step that runs out
    of CD_MAX_CYCLES keeps its last iterate and warns. Returns an array of
    shape (len(lambdas), k).
    """
    n, k = xs.shape
    gram = xs.T @ xs / n
    corr = xs.T @ yc / n
    y2 = float(yc @ yc) / n
    diag = np.diag(gram).copy()
    live = diag > 0.0
    beta = np.zeros(k)
    warm = None  # beta's `_fit_terms` when known
    out = np.empty((len(lambdas), k))
    for step, lam in enumerate(lambdas):
        from_cd = np.sign(beta)
        pattern = from_cd
        b, grad, terms = _solve_pattern(gram, corr, y2, lam, pattern)
        if terms is not None:
            if warm is None:
                warm = _fit_terms(beta, gram @ beta, corr, y2)
            if _accepts(terms, lam, warm[0] + lam * warm[1]):
                out[step] = beta = b
                warm = terms
                continue
        warm = None
        q = gram @ beta  # refresh to stop incremental drift accumulating across steps
        solved = {pattern.tobytes(): (b, grad, terms)}  # each pattern is solved once a step
        prev_obj = np.inf
        for _ in range(CD_MAX_CYCLES):
            max_delta = 0.0
            for j in range(k):
                if diag[j] <= 0.0:
                    continue  # zero-variance column stays at coefficient 0
                rho = corr[j] - q[j] + diag[j] * beta[j]
                new = _soft(rho, lam) / diag[j]
                delta = new - beta[j]
                if delta != 0.0:
                    q += delta * gram[:, j]
                    beta[j] = new
                    max_delta = max(max_delta, abs(delta))
            obj = _objective(beta, q, corr, y2, lam)
            if obj > prev_obj + 1e-10 * max(1.0, abs(prev_obj)):
                raise AssertionError(
                    f"penalized objective increased within a cycle: {prev_obj} -> {obj}"
                )
            prev_obj = obj
            if max_delta < CD_TOL:
                break
            signs = np.sign(beta)
            if not np.array_equal(signs, from_cd):
                from_cd = pattern = signs
            elif pattern is not None:
                pattern = _moved_pattern(beta, pattern, b, grad, lam, live)
            if pattern is None:
                continue  # nothing new to try until CD's signs change
            key = pattern.tobytes()
            if key not in solved:
                solved[key] = _solve_pattern(gram, corr, y2, lam, pattern)
            b, grad, terms = solved[key]
            if _accepts(terms, lam, obj):
                beta, warm = b, terms
                break
        else:
            warnings.warn(
                f"lasso penalty step {step} (lambda={float(lam)!r}) did not converge "
                f"in {CD_MAX_CYCLES} cycles; last max coefficient change "
                f"{float(max_delta)!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        out[step] = beta
    return out


def _standardize(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centers = features.mean(axis=0)
    scales = features.std(axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    return (features - centers) / scales, centers, scales


def _validate_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid is empty")
    if not np.isfinite(grid).all():
        raise ValueError("lambda grid must be finite")
    if np.any(grid < 0):
        raise ValueError("lambda grid must be nonnegative")
    if grid.size > 1 and np.any(np.diff(grid) >= 0):
        raise ValueError("lambda grid must be strictly descending")
    return grid


def fit_lasso_per_arm(
    data: ObservationalDataset,
    lambda_grid: np.ndarray | None = None,
    folds: int = 5,
    seed: int = 0,
) -> OutcomeModel:
    """Quadratic-expansion lasso per arm with seeded k-fold CV over the penalty grid.

    Per arm: expand, standardize non-intercept columns, run the warm-started
    descending path, pick the penalty with minimum mean CV squared error (ties
    to the larger penalty), refit on the whole arm at that penalty, and store
    coefficients on the original scale. The intercept is never penalized.
    """
    folds = _check_int("folds", folds, 2)
    arm_coef: list[np.ndarray] = []
    arm_lambda: list[float] = []
    for w, (x_arm, y_arm) in enumerate(_arm_views(data)):
        n_w = len(y_arm)
        if n_w < folds:
            raise ValueError(f"arm {w} has {n_w} units, fewer than folds={folds}")
        features = expand_features(x_arm, "quadratic")
        grid = (
            default_lambda_grid(features, y_arm)
            if lambda_grid is None
            else _validate_grid(lambda_grid)
        )

        rng = np.random.default_rng([seed, w])
        perm = rng.permutation(n_w)
        fold_indices = np.array_split(perm, folds)
        cv_sse = np.zeros(len(grid))
        for fold in fold_indices:
            mask = np.ones(n_w, dtype=bool)
            mask[fold] = False
            xs_tr, ctr, sc = _standardize(features[mask])
            y_tr = y_arm[mask]
            path = _lasso_path(xs_tr, y_tr - y_tr.mean(), grid)
            xs_val = (features[fold] - ctr) / sc
            preds = y_tr.mean() + xs_val @ path.T  # (n_val, n_lambda)
            cv_sse += np.sum((preds - y_arm[fold][:, None]) ** 2, axis=0)
        best = int(np.argmin(cv_sse / n_w))

        xs, ctr, sc = _standardize(features)
        path = _lasso_path(xs, y_arm - y_arm.mean(), grid[: best + 1])
        beta = path[-1] / sc
        intercept = y_arm.mean() - float(beta @ ctr)
        arm_coef.append(np.concatenate([[intercept], beta]))
        arm_lambda.append(float(grid[best]))

    return OutcomeModel(
        expansion="quadratic",
        coef0=arm_coef[0],
        coef1=arm_coef[1],
        lambda0=arm_lambda[0],
        lambda1=arm_lambda[1],
    )
