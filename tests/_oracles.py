"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's vectorized code paths:
matching does a per-unit full sort over explicitly evaluated quadratic forms,
the matching-ATE oracle walks the textbook formula term by term, the tree
oracle enumerates every candidate tree with plain masking and Python sums, the
masked root search re-solves both depth-1 children of every root split, the
ordered-pair root scorer builds one whole prefix-sum table per (root, child)
feature pair, the lasso oracle runs plain cyclic coordinate descent to its
tolerance, the CD-then-exact lasso oracle tries an exact solve only when
the coordinate descent iterate's signs change, and the pattern-first lasso
oracle is the library's step loop before it carried objective terms between
steps, and the per-arm matching oracle is the library's scan before it formed
each cross-arm distance once.
Slow on purpose; correctness reference only.
"""

from __future__ import annotations

import warnings

import numpy as np

from mbpolicy import MahalanobisMetric, MatchResult, ObservationalDataset, TreePolicy
from mbpolicy import matching
from mbpolicy.dataset import _check_int
from mbpolicy.outcome_models import (
    CD_MAX_CYCLES,
    CD_TOL,
    KKT_TOL,
    _exact_on_support,
    _moved_pattern,
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


# The matching scan as it was when each arm searched the other on its own, so
# every cross-arm distance was formed twice: `match_units` copied unchanged but
# for its name and its module's names. The library's scan must give the same bytes.


def per_arm_match_units(
    data: ObservationalDataset, metric: MahalanobisMetric, m: int
) -> MatchResult:
    """Find the m nearest opposite-arm units for every unit (with replacement).

    Exact O(n^2 p) scan; ties broken by smallest unit index, over candidates
    listed in ascending index order (see _nearest). Deterministic.
    """
    m = _check_int("m", m, 1)
    if metric.p != data.p:
        raise ValueError(f"metric is {metric.p}-d but data has p={data.p}")
    n0, n1 = data.n_control, data.n_treated
    if min(n0, n1) < m:
        raise ValueError(
            f"each arm needs >= m={m} units; arms have n0={n0}, n1={n1}"
        )

    # Whitened coordinates: metric distance becomes Euclidean distance.
    z = data.x @ metric.whitener()
    n = data.n
    matched_sets = np.empty((n, m), dtype=np.int64)
    dists = np.empty((n, m), dtype=float)
    for w in (0, 1):
        units = data.arm_indices(w)
        cands = data.arm_indices(1 - w)  # ascending original indices
        z_c = z[cands]
        rows = max(1, matching._BLOCK_BYTES // z_c.nbytes)
        for start in range(0, len(units), rows):
            block = units[start : start + rows]
            # Explicit differences keep exactly-tied candidates bitwise equal.
            diff = z[block][:, None, :] - z_c[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            order = matching._nearest(d2, m)
            matched_sets[block] = cands[order]
            dists[block] = np.sqrt(np.take_along_axis(d2, order, axis=1))

    return MatchResult(matched_sets=matched_sets, distances=dists)


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


# The step loop as it was before it carried the warm start's objective terms
# from step to step and short-circuited the pattern checks: `_lasso_path`,
# `_solve_pattern`, `_accepts` and `_objective` copied unchanged but for their
# names. The library's loop must give the same bytes.


def _value_objective(
    beta: np.ndarray, gram_beta: np.ndarray, corr: np.ndarray, y2: float, lam: float
) -> float:
    """(1/(2n))||yc - xs beta||^2 + lam ||beta||_1 from the Gram-form pieces."""
    return 0.5 * (y2 - 2.0 * float(corr @ beta) + float(beta @ gram_beta)) + lam * float(
        np.sum(np.abs(beta))
    )


def pattern_solve(
    gram: np.ndarray,
    corr: np.ndarray,
    y2: float,
    lam: float,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """The exact solve of `_exact_on_support`: (b, gradient corr - G b, value).

    value is b's objective if sign(b) == signs and the KKT conditions hold,
    else None; `_value_accepts` compares it with a ceiling.
    """
    support = signs != 0.0
    b = np.zeros(len(signs))
    if support.any():
        b[support] = np.linalg.lstsq(
            gram[support][:, support], corr[support] - lam * signs[support], rcond=None
        )[0]
    gram_b = gram @ b
    grad = corr - gram_b
    tol = KKT_TOL * max(1.0, lam)
    off = ~support & (np.diag(gram) > 0.0)
    checked = bool(
        np.array_equal(np.sign(b), signs)
        and np.all(np.abs(grad[support] - lam * signs[support]) <= tol)
        and np.all(np.abs(grad[off]) <= lam + tol)
    )
    return b, grad, _value_objective(b, gram_b, corr, y2, lam) if checked else None


def _value_accepts(value: float | None, ceiling: float) -> bool:
    """Whether a checked solve's objective is at most ``ceiling`` (1e-10 relative slack)."""
    return value is not None and value <= ceiling + 1e-10 * max(1.0, abs(ceiling))


def pattern_first_lasso_path(xs: np.ndarray, yc: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Lasso solutions for centered data along a descending penalty grid.

    Objective: (1/(2n))||yc - xs b||^2 + lambda ||b||_1. Each step first tries
    `_exact_on_support` with the warm start's signs, its objective at the new
    penalty as the ceiling; a verified solution ends the step with no CD
    cycle. Otherwise Gram-cached coordinate descent runs, the penalized
    objective asserted non-increasing on every full cycle, and each cycle that
    misses CD_TOL tries one pattern: the iterate's signs if they changed since
    the last pattern taken from CD (at first the warm start's), else
    `_moved_pattern` of the last rejected solve. A pattern met again in the
    same step reuses its solve, compared with the new ceiling, instead of
    solving again. A verified solution ends the step. A step that runs out of
    CD_MAX_CYCLES keeps its last iterate and warns. Returns an array of shape
    (len(lambdas), k).
    """
    n, k = xs.shape
    gram = xs.T @ xs / n
    corr = xs.T @ yc / n
    y2 = float(yc @ yc) / n
    diag = np.diag(gram).copy()
    live = diag > 0.0
    beta = np.zeros(k)
    out = np.empty((len(lambdas), k))
    for step, lam in enumerate(lambdas):
        q = gram @ beta  # refresh to stop incremental drift accumulating across steps
        from_cd = np.sign(beta)
        pattern = from_cd
        b, grad, value = pattern_solve(gram, corr, y2, lam, pattern)
        solved = {pattern.tobytes(): (b, grad, value)}  # each pattern is solved once a step
        if _value_accepts(value, _value_objective(beta, q, corr, y2, lam)):
            out[step] = beta = b
            continue
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
            obj = _value_objective(beta, q, corr, y2, lam)
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
                solved[key] = pattern_solve(gram, corr, y2, lam, pattern)
            b, grad, value = solved[key]
            if _value_accepts(value, obj):
                beta = b
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


def ordered_pair_root_scores(x: np.ndarray, gamma: np.ndarray, per_feature: list) -> np.ndarray:
    """Depth-2 objective of every root split from one 2-D prefix-sum table per ordered pair.

    For each root feature f and child feature g (g == f included), S[t, r]
    sums gamma over a_f <= t and a_g <= r, where a_f is a unit's first
    candidate index t with x_f <= cands_f[t]; the left child's sums on g are
    the row S[t, :] and the right child's the row S[-1, :] - S[t, :]. Built
    whole, with no blocks. per_feature rows are (feature, sort order, _, _,
    candidate thresholds), as in the library.
    """

    def best_children(sums):
        total = sums[:, -1]
        return np.maximum(
            np.abs(total),
            np.maximum(2.0 * sums.max(axis=1) - total, total - 2.0 * sums.min(axis=1)),
        )

    positions, col_sums = [], []
    for feature, _, _, _, cands in per_feature:
        a = np.searchsorted(cands, x[:, feature], side="left")
        positions.append(a)
        col_sums.append(np.cumsum(np.bincount(a, weights=gamma, minlength=len(cands))))
    scores = []
    for (_, _, _, _, cands), a_f in zip(per_feature, positions):
        left_best = np.full(len(cands), -np.inf)
        right_best = np.full(len(cands), -np.inf)
        for a_g, col_sum in zip(positions, col_sums):
            width = len(col_sum)
            sums = np.bincount(a_f * width + a_g, weights=gamma, minlength=len(cands) * width)
            sums = sums.reshape(len(cands), width).cumsum(axis=1).cumsum(axis=0)
            left_best = np.maximum(left_best, best_children(sums))
            right_best = np.maximum(right_best, best_children(col_sum - sums))
        scores.append(left_best + right_best)
    return np.concatenate(scores)
