"""Fixed-depth axis-aligned decision-tree policies and exact advantage search.

A policy is a complete binary tree of depth 1 or 2 stored in heap order:
node 0 is the root, node i's children are 2i+1 and 2i+2, and the 2^depth
leaves carry actions in {0, 1}. Evaluation goes left iff x_feature <= threshold.

The search maximizes sum_i (2 pi(x_i) - 1) gamma_i over every tree whose
thresholds come from the per-feature candidate set (midpoints of consecutive
sorted distinct values plus -inf/+inf sentinels). It is exact. Depth 1 is one
prefix-sum scan of gamma per feature over a presorted order. At depth 2 the
best child stump on either side of every root split is read off 2-D prefix
sums of gamma over pairs of thresholds, one table per unordered feature pair
(its rows score the roots on one feature, its columns the roots on the
other), built in blocks of rows under a fixed byte budget (a block of the
table and one reused buffer of the same size are live at once), in
O(p^2 n^2) time. The roots that score within a rounding tolerance of the
best (zero for integer gamma, whose sums are exact) are then re-scored by
the depth-1 scan on each side, so the result is the same floating-point
optimum, bit for bit, as solving both depth-1 subproblems of every root.
Ties are broken by a fixed scan order (feature ascending, threshold
ascending, left subtree before right), and a leaf takes action 1 iff its
gamma sum is strictly positive, so results are fully deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .dataset import (
    ObservationalDataset, _check_choice, _check_features, _check_int, _check_names, _freeze,
)
from .matching import ImputedPotentialOutcomes, impute_bias_corrected, impute_raw, match_units
from .metric import fit_mahalanobis
from .outcome_models import fit_lasso_per_arm, fit_ols_per_arm

__all__ = [
    "TreePolicy",
    "LearnConfig",
    "PolicyLearningError",
    "constant_policy",
    "evaluate_policy",
    "search_tree",
    "impute_scores",
    "learn_policy",
]

MAX_DEPTH = 2
CORRECTIONS = ("none", "ols", "lasso")
_BLOCK_BYTES = 1 << 20  # one block of depth-2 prefix-sum rows; its c_f - S buffer too
# Characters str.splitlines breaks on, escaped in split labels so each split
# stays on one line of to_text; the names: line keeps the exact names.
_LINE_BREAKS = str.maketrans(
    {c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)
# The JSON value kinds of a parsed policy; a bool is not an integer here.
_JSON_KINDS = {"integer": int, "number": (int, float), "string": str}


def _json_list(value: object, kind: str) -> list:
    """value if it is a JSON list of kind, else a TypeError naming the misfit."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {json.dumps(value)}")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, _JSON_KINDS[kind]):
            raise TypeError(f"expected a JSON {kind}, got {json.dumps(item)}")
    return value


@dataclass(frozen=True, eq=False)
class TreePolicy:
    """Complete binary decision tree assigning a binary action per unit.

    features/thresholds have one entry per internal node (heap order),
    leaf_actions one entry per leaf (left to right). eligible_features lists
    the feature indices the tree was allowed to split on; feature_names, when
    present, names the full feature vector for display.
    """

    depth: int
    features: np.ndarray
    thresholds: np.ndarray
    leaf_actions: np.ndarray
    eligible_features: tuple[int, ...]
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        depth = _check_int("depth", self.depth, 1, MAX_DEPTH)
        n_internal = 2**depth - 1
        features = np.asarray(self.features)
        thresholds = np.asarray(self.thresholds, dtype=float)
        leaves = np.asarray(self.leaf_actions)
        for name, array in (("features", features), ("leaf_actions", leaves)):
            if array.dtype.kind not in "iu":
                raise ValueError(f"{name} must have an integer dtype, got {array.dtype}")
        if features.shape != (n_internal,) or thresholds.shape != (n_internal,):
            raise ValueError(f"expected {n_internal} internal nodes for depth {depth}")
        if leaves.shape != (n_internal + 1,):
            raise ValueError(f"expected {n_internal + 1} leaves for depth {depth}")
        if np.any(np.isnan(thresholds)):
            raise ValueError("thresholds must not be NaN")
        if not np.all(np.isin(leaves, (0, 1))):
            raise ValueError("leaf actions must be 0 or 1")
        eligible = _check_features("eligible_features", self.eligible_features)
        if not set(features.tolist()) <= set(eligible):
            raise ValueError("every split feature must be in eligible_features")
        names = self.feature_names
        if names is not None:
            names = _check_names("feature_names", names)
            if len(names) <= eligible[-1]:
                raise ValueError("feature_names too short for eligible_features")
        _freeze(
            self, depth=depth, features=features.astype(np.int64, copy=False),
            thresholds=thresholds, leaf_actions=leaves.astype(np.int64, copy=False),
            eligible_features=eligible, feature_names=names,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePolicy):
            return NotImplemented
        return (
            self.depth == other.depth
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.thresholds, other.thresholds)
            and np.array_equal(self.leaf_actions, other.leaf_actions)
            and self.eligible_features == other.eligible_features
            and self.feature_names == other.feature_names
        )

    def _label(self, feature: int) -> str:
        if self.feature_names is None:
            return f"x[{feature}]"
        return f"x[{feature}] ({self.feature_names[feature].translate(_LINE_BREAKS)})"

    def to_text(self) -> str:
        """Nested human-readable form; parses back exactly via from_text."""
        lines = [f"policy depth={self.depth}"]
        lines.append("eligible: " + ", ".join(str(f) for f in self.eligible_features))
        if self.feature_names is not None:
            lines.append("names: " + json.dumps(list(self.feature_names)))

        def emit(node: int, level: int, indent: str) -> None:
            if level == self.depth:
                leaf = node - (2**self.depth - 1)
                lines.append(f"{indent}action {int(self.leaf_actions[leaf])}")
                return
            feature = int(self.features[node])
            threshold = repr(float(self.thresholds[node]))
            lines.append(f"{indent}if {self._label(feature)} <= {threshold}:")
            emit(2 * node + 1, level + 1, indent + "  ")
            lines.append(f"{indent}else:")
            emit(2 * node + 2, level + 1, indent + "  ")

        emit(0, 0, "")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TreePolicy":
        """Parse the to_text form; malformed input raises ValueError naming the line."""
        lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        lines.append((lines[-1][0] + 1 if lines else 1, "<end of text>"))

        def expect(pos: int, pattern: str, what: str) -> re.Match:
            number, line = lines[pos]
            matched = re.fullmatch(pattern, line)
            if matched is None:
                raise ValueError(f"line {number}: expected {what}, got {line!r}")
            return matched

        depth = int(expect(0, r"policy depth=([12])", "'policy depth=D', D in 1..2").group(1))
        indices = expect(1, r"eligible: (\d{1,18}(?:, \d{1,18})*)", "'eligible: ' and indices")
        eligible = tuple(int(t) for t in indices.group(1).split(", "))
        pos, names = 2, None
        if lines[pos][1].startswith("names: "):
            try:
                names = tuple(_json_list(json.loads(lines[pos][1][len("names: "):]), "string"))
            except (TypeError, ValueError):
                raise ValueError(
                    f"line {lines[pos][0]}: names must be a JSON list of strings"
                ) from None
            pos += 1

        n_internal = 2**depth - 1
        features = np.zeros(n_internal, dtype=np.int64)
        thresholds = np.zeros(n_internal, dtype=float)
        leaves = np.zeros(n_internal + 1, dtype=np.int64)

        def parse(node: int, level: int, cursor: int) -> int:
            if level == depth:
                leaf = expect(cursor, r"action ([01])", "leaf action")
                leaves[node - n_internal] = int(leaf.group(1))
                return cursor + 1
            split = expect(cursor, r"if x\[(\d{1,18})\](?: \(.*\))? <= (.+):", "split")
            features[node] = int(split.group(1))
            try:
                thresholds[node] = float(split.group(2))
            except ValueError:
                raise ValueError(f"line {lines[cursor][0]}: bad threshold in split") from None
            cursor = parse(2 * node + 1, level + 1, cursor + 1)
            expect(cursor, "else:", "'else:'")
            return parse(2 * node + 2, level + 1, cursor + 1)

        end = parse(0, 0, pos)
        if end != len(lines) - 1:
            raise ValueError(f"line {lines[end][0]}: trailing content after policy body")
        return cls(
            depth=depth,
            features=features,
            thresholds=thresholds,
            leaf_actions=leaves,
            eligible_features=eligible,
            feature_names=names,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth,
                "features": self.features.tolist(),
                "thresholds": self.thresholds.tolist(),
                "leaf_actions": self.leaf_actions.tolist(),
                "eligible_features": self.eligible_features,
                "feature_names": self.feature_names,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TreePolicy":
        """Parse the to_json form; malformed input raises ValueError naming the key."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"policy JSON must be an object, got {type(payload).__name__}")
        payload.setdefault("feature_names", None)
        fields = {}
        for key, convert in (
            ("depth", lambda v: _json_list([v], "integer")[0]),
            ("features", lambda v: np.array(_json_list(v, "integer"), dtype=np.int64)),
            ("thresholds", lambda v: np.array(_json_list(v, "number"), dtype=float)),
            ("leaf_actions", lambda v: np.array(_json_list(v, "integer"), dtype=np.int64)),
            ("eligible_features", lambda v: tuple(_json_list(v, "integer"))),
            ("feature_names", lambda v: None if v is None else tuple(_json_list(v, "string"))),
        ):
            if key not in payload:
                raise ValueError(f"policy JSON is missing key {key!r}")
            try:
                fields[key] = convert(payload[key])
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"policy JSON key {key!r}: {exc}") from None
        return cls(**fields)


def constant_policy(
    action: int, feature_names: tuple[str, ...] | None = None
) -> TreePolicy:
    """Degenerate stump assigning the same action everywhere (treat-all/none)."""
    action = _check_choice("action", action, (0, 1))
    return TreePolicy(
        depth=1,
        features=np.array([0]),
        thresholds=np.array([np.inf]),
        leaf_actions=np.array([action, action]),
        eligible_features=(0,),
        feature_names=feature_names,
    )


def evaluate_policy(tree: TreePolicy, x: np.ndarray) -> np.ndarray:
    """Assignment per row by root-to-leaf descent (left iff value <= threshold)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if int(tree.features.max()) >= x.shape[1]:
        raise ValueError(
            f"tree splits on feature {int(tree.features.max())} "
            f"but x has only {x.shape[1]} columns"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    for _ in range(tree.depth):
        go_right = x[rows, tree.features[node]] > tree.thresholds[node]
        node = 2 * node + 1 + go_right
    return tree.leaf_actions[node - (2**tree.depth - 1)].astype(np.int64)


def _split_candidates(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive sorted distinct values, plus -inf/+inf."""
    distinct = np.unique(values)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf]))


class _Stump:
    """Best depth-1 split over a unit subset: objective plus reconstruction info."""

    __slots__ = ("objective", "feature", "threshold", "left_action", "right_action")

    def __init__(self, objective, feature, threshold, left_sum, total):
        self.objective = objective
        self.feature = feature
        self.threshold = threshold
        self.left_action = 1 if left_sum > 0 else 0
        self.right_action = 1 if total - left_sum > 0 else 0


def _best_stump(per_feature: list, mask: np.ndarray | None) -> _Stump:
    """Exact depth-1 solve over the masked units, scanning candidates in order.

    per_feature rows are (feature, sort order, sorted values, gamma in sorted
    order, candidate thresholds). The first maximizer in (feature, threshold)
    order wins; leaf actions are 1 iff the leaf gamma sum is positive.
    """
    best = None
    for feature, order, xs, g_ord, cands in per_feature:
        if mask is not None:
            keep = mask[order]  # preserves sorted order, no re-sort needed
            xs = xs[keep]
            g_ord = g_ord[keep]
        prefix = np.concatenate(([0.0], np.cumsum(g_ord)))
        left = prefix[np.searchsorted(xs, cands, side="right")]
        total = prefix[-1]
        objective = np.abs(left) + np.abs(total - left)
        j = int(np.argmax(objective))
        if best is None or objective[j] > best.objective:
            best = _Stump(float(objective[j]), feature, float(cands[j]), left[j], total)
    return best


def _stump_objective(total: np.ndarray, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Best stump objective max_a |a| + |L - a| over left sums a spanning [low, high].

    |a| + |L - a| = max(|L|, |2a - L|), so only the extreme left sums count.
    """
    return np.maximum(np.abs(total), np.maximum(2.0 * high - total, total - 2.0 * low))


def _best_children(sums: np.ndarray) -> np.ndarray:
    """Per row, the best stump objective on left sums sums[:, r]; the last column is the total."""
    return _stump_objective(sums[:, -1], sums.max(axis=1), sums.min(axis=1))


def _root_scores(x: np.ndarray, gamma: np.ndarray, per_feature: list) -> np.ndarray:
    """Depth-2 objective of every root split, features then thresholds ascending.

    A unit's position on feature f is a_f = the first candidate index t with
    x_f <= cands_f[t], so it goes left of threshold t iff a_f <= t; c_f[t]
    sums gamma over a_f <= t. A child split on the root's own feature needs
    only c_f: its left sums are c_f[min(t, r)] and its right sums
    c_f[r] - c_f[min(t, r)], so prefix and suffix extremes of c_f score it.
    Each unordered feature pair f < g shares one table S[t, r], the gamma sum
    over a_f <= t and a_g <= r. For roots on f, the left child's sums on g
    are the row S[t, :] and the right child's c_g - S[t, :]. For roots on g,
    the left child's sums on f are the column S[:, r] and the right child's
    c_f - S[:, r], whose extremes are carried across blocks. S is built a
    block of rows at a time under _BLOCK_BYTES, carrying its last row forward;
    c_f - S goes into one reused buffer of the same size.
    """
    positions, col_sums = [], []
    for feature, _, _, _, cands in per_feature:
        a = np.searchsorted(cands, x[:, feature], side="left")
        positions.append(a)
        col_sums.append(np.cumsum(np.bincount(a, weights=gamma, minlength=len(cands))))
    left_best, right_best = [], []
    for c in col_sums:
        left_best.append(_stump_objective(c, np.maximum.accumulate(c), np.minimum.accumulate(c)))
        high = np.maximum.accumulate(c[::-1])[::-1] - c
        low = np.minimum.accumulate(c[::-1])[::-1] - c
        right_best.append(_stump_objective(c[-1] - c, high, low))
    for f, g in combinations(range(len(per_feature)), 2):
        order = per_feature[f][1]
        a_f, a_g, c_f, c_g = positions[f], positions[g], col_sums[f], col_sums[g]
        a_sorted = a_f[order]  # nondecreasing, so each block's units are one slice
        width = len(c_g)
        rows = max(1, _BLOCK_BYTES // (8 * width))
        buffer = np.empty((min(rows, len(c_f)), width))  # for c_f - S
        carry = np.zeros(width)
        col_high, col_low = np.full(width, -np.inf), np.full(width, np.inf)
        rest_high, rest_low = np.full(width, -np.inf), np.full(width, np.inf)
        for t0 in range(0, len(c_f), rows):
            t1 = min(t0 + rows, len(c_f))
            lo, hi = np.searchsorted(a_sorted, (t0, t1))
            units = order[lo:hi]
            sums = np.bincount(
                (a_f[units] - t0) * width + a_g[units],
                weights=gamma[units],
                minlength=(t1 - t0) * width,
            )  # integer zeros when the block holds no unit
            sums = sums.astype(float, copy=False).reshape(t1 - t0, width)
            np.cumsum(sums, axis=1, out=sums)
            sums[0] += carry
            np.cumsum(sums, axis=0, out=sums)
            carry = sums[-1].copy()
            np.maximum(left_best[f][t0:t1], _best_children(sums), out=left_best[f][t0:t1])
            np.maximum(col_high, sums.max(axis=0), out=col_high)
            np.minimum(col_low, sums.min(axis=0), out=col_low)
            rest = np.subtract(c_f[t0:t1, None], sums, out=buffer[: t1 - t0])
            np.maximum(rest_high, rest.max(axis=0), out=rest_high)
            np.minimum(rest_low, rest.min(axis=0), out=rest_low)
            np.subtract(c_g, sums, out=sums)
            np.maximum(right_best[f][t0:t1], _best_children(sums), out=right_best[f][t0:t1])
        # carry is now S's last row, the gamma sums over a_g <= r
        np.maximum(left_best[g], _stump_objective(carry, col_high, col_low), out=left_best[g])
        right_g = _stump_objective(c_f[-1] - carry, rest_high, rest_low)
        np.maximum(right_best[g], right_g, out=right_best[g])
    return np.concatenate(left_best) + np.concatenate(right_best)


def search_tree(
    x: np.ndarray,
    gamma: np.ndarray,
    depth: int,
    eligible_features: tuple[int, ...] | None = None,
) -> TreePolicy:
    """Exact maximizer of sum_i (2 pi(x_i) - 1) gamma_i over the tree class.

    Candidate thresholds per feature are midpoints of consecutive sorted
    distinct observed values plus -inf/+inf. Among equal-objective trees the
    first in scan order (feature ascending, threshold ascending, left subtree
    before right) is returned.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    gamma = np.asarray(gamma, dtype=float)
    n, p = x.shape
    if n < 1:
        raise ValueError("need at least one row")
    if gamma.shape != (n,):
        raise ValueError(f"gamma has shape {gamma.shape}, expected ({n},)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(gamma))):
        raise ValueError("x and gamma must be finite")
    with np.errstate(over="ignore"):
        # bounds every sum and objective the scans form, such as 2a - L
        bounded = np.isfinite(4.0 * np.abs(gamma).sum())
    if not bounded:
        raise ValueError("gamma is too large: 4 * sum(|gamma|) overflows")
    depth = _check_int("depth", depth, 1, MAX_DEPTH)
    eligible = _check_features(
        "eligible_features", range(p) if eligible_features is None else eligible_features, p
    )

    per_feature = []
    for feature in eligible:
        order = np.argsort(x[:, feature], kind="stable")
        xs = x[order, feature]
        per_feature.append((feature, order, xs, gamma[order], _split_candidates(xs)))

    if depth == 1:
        stump = _best_stump(per_feature, mask=None)
        return TreePolicy(
            depth=1,
            features=np.array([stump.feature]),
            thresholds=np.array([stump.threshold]),
            leaf_actions=np.array([stump.left_action, stump.right_action]),
            eligible_features=eligible,
        )

    # Prefix sums add gamma in another order than _best_stump, so every root
    # scoring within tol of the best (far above that rounding, about
    # n * eps * sum|gamma|) is re-scored by the masked scan, in scan order.
    # Integer gamma with 4 * sum|gamma| < 2**53 makes every sum exact: tol 0.
    scores = _root_scores(x, gamma, per_feature)
    scale = float(np.sum(np.abs(gamma)))
    exact = 4.0 * scale < 2.0**53 and np.array_equal(gamma, np.trunc(gamma))
    tol = 0.0 if exact else 1e-9 * scale
    near = np.flatnonzero(scores >= np.max(scores) - tol)
    # Largest prefix-sum score among the near-ties from each one onward.
    remaining = np.maximum.accumulate(scores[near][::-1])[::-1]
    root_features = np.concatenate([np.full(len(cands), f) for f, _, _, _, cands in per_feature])
    root_thresholds = np.concatenate([cands for _, _, _, _, cands in per_feature])
    best_objective = -np.inf
    for k, root in enumerate(near):
        feature, threshold = int(root_features[root]), float(root_thresholds[root])
        mask = x[:, feature] <= threshold
        left = _best_stump(per_feature, mask)
        right = _best_stump(per_feature, ~mask)
        objective = left.objective + right.objective
        if objective > best_objective:
            best_objective = objective
            best = (feature, threshold, left, right)
        # No later root can beat the best strictly once it clears their scores.
        if k + 1 < len(near) and best_objective >= remaining[k + 1] + tol:
            break

    feature, threshold, left, right = best
    return TreePolicy(
        depth=2,
        features=np.array([feature, left.feature, right.feature]),
        thresholds=np.array([threshold, left.threshold, right.threshold]),
        leaf_actions=np.array(
            [left.left_action, left.right_action, right.left_action, right.right_action]
        ),
        eligible_features=eligible,
    )


@dataclass(frozen=True)
class LearnConfig:
    """Settings for the impute-then-search pipeline.

    m: matches per unit. correction: counterfactual adjustment, one of
    "none", "ols" (linear fit per arm), "lasso" (quadratic-expansion lasso
    per arm, penalty by cross-validation). seed drives only the lasso CV
    fold shuffles. Splits use the dataset's policy-eligible features.
    """

    m: int = 5
    correction: str = "lasso"
    depth: int = 2
    lasso_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        _freeze(
            self, correction=_check_choice("correction", self.correction, CORRECTIONS),
            m=_check_int("m", self.m, 1), depth=_check_int("depth", self.depth, 1, MAX_DEPTH),
            lasso_folds=_check_int("lasso_folds", self.lasso_folds, 2),
            seed=_check_int("seed", self.seed, 0),
        )


class PolicyLearningError(RuntimeError):
    """Failure inside one stage of learn_policy, labeled with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


def _run_stage(stage, fn):
    try:
        return fn()
    except Exception as exc:
        raise PolicyLearningError(stage, exc) from exc


def impute_scores(
    data: ObservationalDataset, config: LearnConfig
) -> ImputedPotentialOutcomes:
    """Imputation stages of the pipeline: metric, matching, optional correction."""
    metric = _run_stage("metric", lambda: fit_mahalanobis(data.x))
    matches = _run_stage("matching", lambda: match_units(data, metric, config.m))
    if config.correction == "none":
        return _run_stage("imputation", lambda: impute_raw(data, matches))
    if config.correction == "ols":
        model = _run_stage("outcome_model", lambda: fit_ols_per_arm(data, "linear"))
    else:
        model = _run_stage(
            "outcome_model",
            lambda: fit_lasso_per_arm(data, folds=config.lasso_folds, seed=config.seed),
        )
    return _run_stage("imputation", lambda: impute_bias_corrected(data, matches, model))


def learn_policy(
    data: ObservationalDataset,
    config: LearnConfig,
    imputed: ImputedPotentialOutcomes | None = None,
) -> TreePolicy:
    """Full pipeline: metric, matching, optional outcome model, imputation, search.

    Deterministic given (data, config); the only randomness is the seeded
    lasso cross-validation shuffle. Pass a precomputed imputation to reuse it
    (e.g. when the per-unit scores are also being reported).
    """
    if imputed is None:
        imputed = impute_scores(data, config)
    tree = _run_stage(
        "search",
        lambda: search_tree(data.x, imputed.gamma, config.depth, data.eligible_features),
    )
    return replace(tree, feature_names=data.feature_names)
