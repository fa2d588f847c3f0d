"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's vectorized code paths:
matching does a per-unit full sort over explicitly evaluated quadratic forms,
the matching-ATE oracle walks the textbook formula term by term, the tree
oracle enumerates every candidate tree with plain masking and Python sums, the
masked root search re-solves both depth-1 children of every root split, and
the lasso oracle runs plain cyclic coordinate descent to its tolerance, and
the CD-then-exact lasso oracle tries an exact solve only when the coordinate
descent iterate's signs change.
Slow on purpose; correctness reference only.
"""

from __future__ import annotations

import warnings

import numpy as np

from mbpolicy import ObservationalDataset, TreePolicy
from mbpolicy.outcome_models import (
    CD_MAX_CYCLES,
    CD_TOL,
    _exact_on_support,
    _objective,
)


def random_dataset(rng: np.random.Generator, n: int, p: int, min_arm: int) -> ObservationalDataset:
    """Random instance with both arms guaranteed at least min_arm units."""
    if n < 2 * min_arm:
        raise ValueError("n too small for the requested arm sizes")
    x = rng.normal(size=(n, p))
    share = rng.uniform(0.3, 0.7)
    while True:
        w = (rng.random(n) < share).astype(np.int64)
        n1 = int(w.sum())
        if min_arm <= n1 <= n - min_arm:
            break
    y = rng.normal(size=n) * rng.uniform(0.5, 2.0) + rng.normal()
    names = tuple(f"f{j}" for j in range(p))
    return ObservationalDataset(x=x, w=w, y=y, feature_names=names)


def slow_matched_sets(
    x: np.ndarray, w: np.ndarray, v: np.ndarray, m: int
) -> list[list[int]]:
    """Nearest opposite-arm units by full sort; ties go to the smaller index."""
    n = x.shape[0]
    sets = []
    for i in range(n):
        keyed = []
        for j in range(n):
            if w[j] == w[i]:
                continue
            d = x[i] - x[j]
            keyed.append((float(d @ v @ d), j))
        keyed.sort()
        sets.append([j for _, j in keyed[:m]])
    return sets


def slow_matching_ate(
    x: np.ndarray, w: np.ndarray, y: np.ndarray, v: np.ndarray, m: int
) -> float:
    """Matching estimate of the average treatment effect, one unit at a time."""
    sets = slow_matched_sets(x, w, v, m)
    total = 0.0
    for i in range(len(y)):
        counterfactual = sum(y[j] for j in sets[i]) / m
        if w[i] == 1:
            total += y[i] - counterfactual
        else:
            total += counterfactual - y[i]
    return total / len(y)


def _candidates(values: np.ndarray) -> list[float]:
    """Same candidate convention as the search: midpoints plus infinities."""
    distinct = sorted(set(float(v) for v in values))
    out = [-np.inf]
    for a, b in zip(distinct, distinct[1:]):
        out.append((a + b) / 2.0)
    out.append(np.inf)
    return out


def _leaf(total: float) -> tuple[int, float]:
    """Leaf action (1 iff the gamma sum is strictly positive) and contribution."""
    action = 1 if total > 0 else 0
    return action, (total if action == 1 else -total)


def slow_best_stump(
    x: np.ndarray, gamma: np.ndarray, rows: list[int], eligible: tuple[int, ...]
) -> tuple[float, int, float, int, int]:
    """Best single split over the given rows, scanned feature then threshold ascending.

    Thresholds come from the full data (not just the row subset). Returns
    (objective, feature, threshold, left action, right action); the first
    maximizer in scan order wins.
    """
    best = None
    for f in eligible:
        for t in _candidates(x[:, f]):
            left_sum = sum(float(gamma[i]) for i in rows if x[i, f] <= t)
            right_sum = sum(float(gamma[i]) for i in rows if x[i, f] > t)
            la, lc = _leaf(left_sum)
            ra, rc = _leaf(right_sum)
            obj = lc + rc
            if best is None or obj > best[0]:
                best = (obj, f, t, la, ra)
    return best


def slow_tree_search(
    x: np.ndarray, gamma: np.ndarray, depth: int, eligible: tuple[int, ...]
) -> tuple[float, TreePolicy]:
    """Exhaustive enumeration of every candidate tree of the given depth."""
    n = x.shape[0]
    rows = list(range(n))
    if depth == 1:
        obj, f, t, la, ra = slow_best_stump(x, gamma, rows, eligible)
        tree = TreePolicy(
            depth=1,
            features=np.array([f]),
            thresholds=np.array([t]),
            leaf_actions=np.array([la, ra]),
            eligible_features=eligible,
        )
        return obj, tree

    best = None
    for f in eligible:
        for t in _candidates(x[:, f]):
            left_rows = [i for i in rows if x[i, f] <= t]
            right_rows = [i for i in rows if x[i, f] > t]
            lo = slow_best_stump(x, gamma, left_rows, eligible)
            ro = slow_best_stump(x, gamma, right_rows, eligible)
            obj = lo[0] + ro[0]
            if best is None or obj > best[0]:
                best = (obj, f, t, lo, ro)
    obj, f, t, lo, ro = best
    tree = TreePolicy(
        depth=2,
        features=np.array([f, lo[1], ro[1]]),
        thresholds=np.array([t, lo[2], ro[2]]),
        leaf_actions=np.array([lo[3], lo[4], ro[3], ro[4]]),
        eligible_features=eligible,
    )
    return obj, tree


def random_tree(
    rng: np.random.Generator, x: np.ndarray, depth: int = 2
) -> TreePolicy:
    """Random policy with thresholds drawn from observed feature values."""
    p = x.shape[1]
    n_internal = 2**depth - 1
    features = rng.integers(0, p, size=n_internal)
    thresholds = np.array(
        [x[int(rng.integers(0, x.shape[0])), f] for f in features], dtype=float
    )
    leaves = rng.integers(0, 2, size=2**depth)
    return TreePolicy(
        depth=depth,
        features=features,
        thresholds=thresholds,
        leaf_actions=leaves,
        eligible_features=tuple(range(p)),
    )


def tree_objective(tree: TreePolicy, x: np.ndarray, gamma: np.ndarray) -> float:
    """Sum of (2 pi(x_i) - 1) gamma_i under the tree's assignments."""
    from mbpolicy import evaluate_policy

    signs = 2.0 * evaluate_policy(tree, x) - 1.0
    return float(np.sum(signs * gamma))


def _soft(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def slow_lasso_path(xs: np.ndarray, yc: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Warm-started cyclic coordinate descent along a descending penalty grid.

    Objective: (1/(2n))||yc - xs b||^2 + lambda ||b||_1. Each penalty step
    cycles until the largest coefficient change falls below 1e-7 (at most
    10,000 cycles), with no exact solve. Returns an array of shape
    (len(lambdas), k).
    """
    n, k = xs.shape
    gram = xs.T @ xs / n
    corr = xs.T @ yc / n
    y2 = float(yc @ yc) / n
    diag = np.diag(gram).copy()
    beta = np.zeros(k)
    out = np.empty((len(lambdas), k))
    for step, lam in enumerate(lambdas):
        q = gram @ beta  # refresh to stop incremental drift accumulating across steps
        prev_obj = np.inf
        for _ in range(10_000):
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
            obj = 0.5 * (y2 - 2.0 * float(corr @ beta) + float(beta @ q)) + lam * float(
                np.sum(np.abs(beta))
            )
            if obj > prev_obj + 1e-10 * max(1.0, abs(prev_obj)):
                raise AssertionError(
                    f"penalized objective increased within a cycle: {prev_obj} -> {obj}"
                )
            prev_obj = obj
            if max_delta < 1e-7:
                break
        out[step] = beta
    return out


def cd_exact_lasso_path(xs: np.ndarray, yc: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Lasso solutions for centered data along a descending penalty grid.

    Objective: (1/(2n))||yc - xs b||^2 + lambda ||b||_1. Each step warm-starts
    Gram-cached coordinate descent; the penalized objective is asserted
    non-increasing on every full cycle. A cycle that misses CD_TOL with a sign
    pattern not yet tried at this step tries `_exact_on_support` with the
    iterate's signs, and a verified solution ends the step. A step that runs
    out of CD_MAX_CYCLES keeps its last iterate and warns. Returns an array of
    shape (len(lambdas), k).
    """
    n, k = xs.shape
    gram = xs.T @ xs / n
    corr = xs.T @ yc / n
    y2 = float(yc @ yc) / n
    diag = np.diag(gram).copy()
    beta = np.zeros(k)
    out = np.empty((len(lambdas), k))
    for step, lam in enumerate(lambdas):
        q = gram @ beta  # refresh to stop incremental drift accumulating across steps
        prev_obj = np.inf
        tried = None
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
            if tried is not None and np.array_equal(signs, tried):
                continue  # the same pattern gives the same answer
            tried = signs
            exact = _exact_on_support(gram, corr, y2, lam, signs, obj)
            if exact is not None:
                beta = exact
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


def _masked_best_stump(per_feature: list, mask: np.ndarray) -> tuple:
    """Depth-1 scan of the masked units: (objective, feature, threshold, left sum, total)."""
    best = None
    for feature, order, xs, g_ord, cands in per_feature:
        keep = mask[order]
        xs = xs[keep]
        g_ord = g_ord[keep]
        prefix = np.concatenate(([0.0], np.cumsum(g_ord)))
        left = prefix[np.searchsorted(xs, cands, side="right")]
        total = prefix[-1]
        objective = np.abs(left) + np.abs(total - left)
        j = int(np.argmax(objective))
        if best is None or objective[j] > best[0]:
            best = (float(objective[j]), feature, float(cands[j]), left[j], total)
    return best


def masked_root_search(
    x: np.ndarray, gamma: np.ndarray, eligible_features: tuple[int, ...] | None = None
) -> TreePolicy:
    """Depth-2 search by a loop over every root threshold and two masked stump scans.

    The same floating-point sums, in the same order, as the library's
    depth-1 scan, so its trees are bitwise the ones a faster exact depth-2
    search must return. Ties go to the first root in (feature, threshold)
    order; a leaf takes action 1 iff its gamma sum is strictly positive.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    gamma = np.asarray(gamma, dtype=float)
    if eligible_features is None:
        eligible = tuple(range(x.shape[1]))
    else:
        eligible = tuple(sorted({int(f) for f in eligible_features}))
    per_feature = []
    for feature in eligible:
        order = np.argsort(x[:, feature], kind="stable")
        xs = x[order, feature]
        distinct = np.unique(xs)
        cands = np.concatenate(([-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]))
        per_feature.append((feature, order, xs, gamma[order], cands))

    best_objective = -np.inf
    best = None
    for feature, _, _, _, cands in per_feature:
        column = x[:, feature]
        for threshold in cands:
            mask = column <= threshold
            left = _masked_best_stump(per_feature, mask)
            right = _masked_best_stump(per_feature, ~mask)
            objective = left[0] + right[0]
            if objective > best_objective:
                best_objective = objective
                best = (feature, float(threshold), left, right)

    feature, threshold, left, right = best
    leaf_sums = (left[3], left[4] - left[3], right[3], right[4] - right[3])
    return TreePolicy(
        depth=2,
        features=np.array([feature, left[1], right[1]]),
        thresholds=np.array([threshold, left[2], right[2]]),
        leaf_actions=np.array([_leaf(total)[0] for total in leaf_sums]),
        eligible_features=eligible,
    )
