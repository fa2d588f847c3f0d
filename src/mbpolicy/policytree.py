"""Fixed-depth axis-aligned decision-tree policies and exact advantage search.

A policy is a complete binary tree of depth 1 or 2 stored in heap order:
node 0 is the root, node i's children are 2i+1 and 2i+2, and the 2^depth
leaves carry actions in {0, 1}. Evaluation goes left iff x_feature <= threshold.

The search maximizes sum_i (2 pi(x_i) - 1) gamma_i over every tree whose
thresholds come from the per-feature candidate set (midpoints of consecutive
sorted distinct values plus -inf/+inf sentinels). It is exact. Depth 1 is one
prefix-sum scan of gamma per feature over a presorted order. At depth 2 the
best child stump on either side of every root split is read off 2-D prefix
sums of gamma over pairs of thresholds, S[t, r] for the roots on one feature
(W_f candidates) and the child splits on another (W_g). The route is chosen
per unordered feature pair by the size of its table:
- W_f * W_g <= 100 n: one dense table per pair scores the roots on both
  features, built in blocks of rows, in O(W_f W_g) time;
- larger: each feature in turn is the root, and the other's candidates are
  cut into about sqrt(W_g) column chunks, in O(n sqrt(W_g) + W_f sqrt(W_g))
  time, O(n sqrt(n)) for continuous features, without building S.
Measured per pair, the dense table is the faster route below about 60 cells
per unit, either can win from 60 to 100, and the chunked route won every
pair from 100 up (1.7 to 3.1 times at 100 to 200 cells per unit, 5.9 times
at n = 2000 with continuous features). Memory: blocks of at most
_BLOCK_BYTES, at most three live at once, plus, on the chunked route, five
extremes per column of the chunk tables (about 40 n bytes) and each chunk's
zero column (8 W_g bytes), plus O(pn); the chunk tables themselves are only
ever held a block at a time (a pair of continuous features peaked at 5.0 MB
at n = 32000, where the whole table would be 46 MB). The roots that score
within a rounding tolerance of the best (zero for integer gamma, whose sums
are exact) are then re-scored by the depth-1 scan on each side, so the
result is the same floating-point optimum, bit for bit, as solving both
depth-1 subproblems of every root.
Ties are broken by a fixed scan order (feature ascending, threshold
ascending, left subtree before right), and a leaf takes action 1 iff its
gamma sum is strictly positive, so results are fully deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, replace
from itertools import combinations
from math import isqrt

import numpy as np

from .advantage import AipwScores
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
# Bounds each block of a depth-2 table: dense rows of S and their c_f - S
# buffer; on the chunked route, columns of the chunk tables and rows of P, J.
# No score depends on it.
_BLOCK_BYTES = 1 << 20
# A feature pair whose table has more cells per unit than this is chunked:
# the measured crossover lies between 60 and 100 (see the module docstring).
_CHUNKED_CELLS_PER_UNIT = 100
# Characters str.splitlines breaks on, escaped in split labels so each split
# stays on one line of to_text; the names: line keeps the exact names.
_LINE_BREAKS = str.maketrans(
    {c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)
# The JSON value kinds of a parsed policy; a bool is not an integer here.
_JSON_KINDS = {"integer": int, "number": (int, float), "string": str}


def _json_list(value: object, kind: str, length: int | None = None) -> list:
    """value if it is a JSON list of kind (and length), else an error naming the misfit."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {json.dumps(value)}")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, _JSON_KINDS[kind]):
            raise TypeError(f"expected a JSON {kind}, got {json.dumps(item)}")
    if length is not None and len(value) != length:
        raise ValueError(f"expected {length} value(s), got {len(value)}")
    return value


def _json_thresholds(value: object, length: int) -> np.ndarray:
    """value as thresholds: numbers, or "inf" and "-inf"; NaN (a JSON extension) is refused.

    Standard JSON has no infinities, so to_json writes them as those two strings.
    """
    if isinstance(value, list):
        value = [float(item) if item in ("inf", "-inf") else item for item in value]
    thresholds = np.array(_json_list(value, "number", length), dtype=float)
    if np.any(np.isnan(thresholds)):
        raise ValueError("thresholds must not be NaN")
    return thresholds


def _check_leaves(leaves: np.ndarray) -> np.ndarray:
    if not np.all(np.isin(leaves, (0, 1))):
        raise ValueError("leaf actions must be 0 or 1")
    return leaves


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
        _check_leaves(leaves)
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
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        # == for names: np.array_equal calls ("a",) and ("a\x00",) equal
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

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
            number = lines[cursor][0]
            features[node] = int(split.group(1))
            if features[node] not in eligible:
                raise ValueError(f"line {number}: split feature {features[node]} is not eligible")
            try:
                thresholds[node] = float(split.group(2))
            except ValueError:
                thresholds[node] = np.nan
            if np.isnan(thresholds[node]):
                raise ValueError(f"line {number}: bad threshold in split")
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
        """One key per field, in field order; arrays as lists, an infinite threshold as a string.

        The text is standard JSON: "inf" and "-inf" stand for the infinities.
        """
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}
        values["thresholds"] = [t if np.isfinite(t) else repr(t) for t in values["thresholds"]]
        return json.dumps(values, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "TreePolicy":
        """Parse the to_json form; malformed input raises ValueError naming the key.

        A threshold may also be the non-standard token Infinity or -Infinity,
        as older files wrote them.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"policy JSON must be an object, got {type(payload).__name__}")
        payload.setdefault("feature_names", None)
        values = {}

        def nodes() -> int:  # internal nodes, from the depth already checked
            return 2 ** values["depth"] - 1

        for key, convert in (
            ("depth", lambda v: _check_int("depth", _json_list([v], "integer")[0], 1, MAX_DEPTH)),
            ("features", lambda v: np.array(_json_list(v, "integer", nodes()), dtype=np.int64)),
            ("thresholds", lambda v: _json_thresholds(v, nodes())),
            ("leaf_actions", lambda v: _check_leaves(
                np.array(_json_list(v, "integer", nodes() + 1), dtype=np.int64)
            )),
            ("eligible_features", lambda v: tuple(_json_list(v, "integer"))),
            ("feature_names", lambda v: None if v is None else tuple(_json_list(v, "string"))),
        ):
            if key not in payload:
                raise ValueError(f"policy JSON is missing key {key!r}")
            try:
                values[key] = convert(payload[key])
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"policy JSON key {key!r}: {exc}") from None
        return cls(**values)


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


def _best_stump(per_feature: list, mask: np.ndarray | None) -> tuple:
    """Exact depth-1 solve over the masked units, scanning candidates in order.

    per_feature rows are (feature, sort order, sorted values, gamma in sorted
    order, candidate thresholds). Returns (objective, feature, threshold,
    (left sum, right sum)) of the first maximizer in (feature, threshold) order.
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
        if best is None or objective[j] > best[0]:
            best = (float(objective[j]), feature, float(cands[j]), (left[j], total - left[j]))
    return best


def _tree(eligible: tuple[int, ...], splits: list, leaf_sums: tuple) -> TreePolicy:
    """The tree of (feature, threshold) splits in heap order; a leaf treats iff its sum > 0."""
    features, thresholds = zip(*splits)
    return TreePolicy(
        depth=len(splits).bit_length(),
        features=np.array(features),
        thresholds=np.array(thresholds),
        leaf_actions=np.array([1 if total > 0 else 0 for total in leaf_sums]),
        eligible_features=eligible,
    )


def _stump_objective(total: np.ndarray, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Best stump objective max_a |a| + |L - a| over left sums a spanning [low, high].

    |a| + |L - a| = max(|L|, |2a - L|), so only the extreme left sums count.
    """
    return np.maximum(np.abs(total), np.maximum(2.0 * high - total, total - 2.0 * low))


def _best_children(sums: np.ndarray) -> np.ndarray:
    """Per row, the best stump objective on left sums sums[:, r]; the last column is the total."""
    return _stump_objective(sums[:, -1], sums.max(axis=1), sums.min(axis=1))


def _dense_children(a_f, order, c_f, a_g, c_g, gamma) -> tuple:
    """Best child objectives on g for the roots on f and on g, from the whole table S.

    S[t, r] sums gamma over a_f <= t and a_g <= r. For roots on f, the left
    child's sums on g are the row S[t, :] and the right child's c_g - S[t, :].
    For roots on g, the left child's sums on f are the column S[:, r] and the
    right child's c_f - S[:, r], whose extremes are carried across blocks. S is
    built a block of rows at a time under _BLOCK_BYTES, carrying its last row
    forward; c_f - S goes into one reused buffer of the same size. Returns
    (left on f, right on f, left on g, right on g).
    """
    a_sorted = a_f[order]  # nondecreasing, so each block's units are one slice
    width = len(c_g)
    rows = max(1, _BLOCK_BYTES // (8 * width))
    buffer = np.empty((min(rows, len(c_f)), width))  # for c_f - S
    carry = np.zeros(width)
    col_high, col_low = np.full(width, -np.inf), np.full(width, np.inf)
    rest_high, rest_low = np.full(width, -np.inf), np.full(width, np.inf)
    left_f, right_f = np.empty(len(c_f)), np.empty(len(c_f))
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
        left_f[t0:t1] = _best_children(sums)
        np.maximum(col_high, sums.max(axis=0), out=col_high)
        np.minimum(col_low, sums.min(axis=0), out=col_low)
        rest = np.subtract(c_f[t0:t1, None], sums, out=buffer[: t1 - t0])
        np.maximum(rest_high, rest.max(axis=0), out=rest_high)
        np.minimum(rest_low, rest.min(axis=0), out=rest_low)
        np.subtract(c_g, sums, out=sums)
        right_f[t0:t1] = _best_children(sums)
    # carry is now S's last row, the gamma sums over a_g <= r
    left_g = _stump_objective(carry, col_high, col_low)
    right_g = _stump_objective(c_f[-1] - carry, rest_high, rest_low)
    return left_f, right_f, left_g, right_g


def _chunk_tables(order, a_g, c_g, gamma) -> tuple:
    """The per-row extremes of the chunk tables Q_k of _chunked_children.

    All the Q_k form one (width, n + chunks) table q, a zero column for each
    chunk followed by a column for each of its units in a_f order (order
    sorts a_f), summed through every chunk and then less the chunk's zero
    column. q is built and reduced a block of columns at a time under
    _BLOCK_BYTES, carrying its last column forward and keeping each chunk's
    zero column, so no score depends on the block size. Returns (each unit's
    chunk, each chunk's zero column, extremes), the extremes being each
    column's last entry, max and min of Q_k and max and min of c_g - Q_k.
    """
    n, n_cols = len(gamma), len(c_g)
    width = isqrt(n_cols - 1) + 1
    n_chunks = -(-n_cols // width)
    n_total = n + n_chunks
    chunk, column = np.divmod(a_g, width)
    sizes = np.bincount(chunk, minlength=n_chunks)
    zero_rows = np.concatenate(([0], np.cumsum(sizes[:-1] + 1)))
    units = order[np.argsort(chunk[order], kind="stable")]  # by chunk, then a_f
    at = np.arange(1, n + 1) + chunk[units]  # each unit's column of q, ascending
    c_pad = np.full(n_chunks * width, c_g[-1])  # columns past W_g repeat the last
    c_pad[:n_cols] = c_g
    c_pad = c_pad.reshape(n_chunks, width).T
    column_chunk = np.repeat(np.arange(n_chunks), sizes + 1)
    extremes = np.empty((5, n_total))
    step = max(1, _BLOCK_BYTES // (8 * width))
    carry, base = np.zeros(width), np.empty((width, n_chunks))
    z1 = 0  # zero columns before the block
    for i0 in range(0, n_total, step):
        i1 = min(i0 + step, n_total)
        z0, z1 = z1, int(np.searchsorted(zero_rows, i1))
        block = units[i0 - z0 : i1 - z1]  # the units of columns i0..i1 - 1
        part = np.zeros((width, i1 - i0))
        part[column[block], at[i0 - z0 : i1 - z1] - i0] = gamma[block]
        for r in range(1, width):
            part[r] += part[r - 1]
        part[:, 0] += carry
        np.cumsum(part, axis=1, out=part)
        carry = part[:, -1].copy()
        base[:, z0:z1] = part[:, zero_rows[z0:z1] - i0]
        k = column_chunk[i0:i1]
        np.subtract(part, base[:, k], out=part)
        extremes[:3, i0:i1] = part[-1], part.max(axis=0), part.min(axis=0)
        np.subtract(c_pad[:, k], part, out=part)
        extremes[3:, i0:i1] = part.max(axis=0), part.min(axis=0)
    return chunk, zero_rows, extremes


def _chunked_children(a_f, order, c_f, a_g, c_g, gamma) -> tuple:
    """Best child objectives on g for the roots on f, without building S.

    g's candidates are cut into chunks of about sqrt(W_g) columns. On chunk
    k, S[t, r] = P[t, k] + Q_k[J[t, k], r]: J counts chunk k's units with
    a_f <= t, Q_k[j, r] sums gamma over chunk k's first j units in a_f order
    with a_g <= r, and P[t, k] sums gamma over a_f <= t in earlier chunks,
    the sum over k' < k of Q_k'[J[t, k'], last column]. Only the extremes
    over r of Q_k and of c_g - Q_k are kept (_chunk_tables), so each root
    row's extremes over r are max_k (P + max_r Q_k[J]) and so on, in
    O(n sqrt(W_g) + W_f sqrt(W_g)) time. J and P go a block of root rows at
    a time under _BLOCK_BYTES; only the integer J carries across blocks, so
    no score depends on them. Sums of integer gamma are exact. Returns
    (left on f, right on f).
    """
    chunk, zero_rows, (q_last, q_high, q_low, rest_high, rest_low) = _chunk_tables(
        order, a_g, c_g, gamma
    )
    n_chunks = len(zero_rows)
    a_sorted = a_f[order]
    rows = max(1, _BLOCK_BYTES // (8 * n_chunks))
    row_carry = zero_rows
    left, right = np.empty(len(c_f)), np.empty(len(c_f))
    for t0 in range(0, len(c_f), rows):
        t1 = min(t0 + rows, len(c_f))
        lo, hi = np.searchsorted(a_sorted, (t0, t1))
        block = order[lo:hi]
        at = np.bincount(
            chunk[block] * (t1 - t0) + a_f[block] - t0, minlength=n_chunks * (t1 - t0)
        ).reshape(n_chunks, t1 - t0)
        at[:, 0] += row_carry
        np.cumsum(at, axis=1, out=at)  # at[k, t]: the column of Q_k that root row t reads
        row_carry = at[:, -1].copy()
        before = np.take(q_last, at)
        for k in range(1, n_chunks - 1):
            np.add(before[k - 1], before[k], out=before[k])
        before = before[:-1]  # before[k - 1] is P[:, k]
        values = np.take(q_high, at)
        values[1:] += before
        high = values.max(axis=0)
        np.take(q_low, at, out=values)[1:] += before
        left[t0:t1] = _stump_objective(c_f[t0:t1], high, values.min(axis=0))
        np.take(rest_high, at, out=values)[1:] -= before
        high = values.max(axis=0)
        np.take(rest_low, at, out=values)[1:] -= before
        right[t0:t1] = _stump_objective(c_f[-1] - c_f[t0:t1], high, values.min(axis=0))
    return left, right


def _root_scores(x: np.ndarray, gamma: np.ndarray, per_feature: list) -> np.ndarray:
    """Depth-2 objective of every root split, features then thresholds ascending.

    A unit's position on feature f is a_f = the first candidate index t with
    x_f <= cands_f[t], so it goes left of threshold t iff a_f <= t; c_f[t]
    sums gamma over a_f <= t. A child split on the root's own feature needs
    only c_f: its left sums are c_f[min(t, r)] and its right sums
    c_f[r] - c_f[min(t, r)], so prefix and suffix extremes of c_f score it.
    A child on another feature g reads the extremes of the rows (roots on f)
    or columns (roots on g) of S[t, r], the gamma sum over a_f <= t and
    a_g <= r, and of their complements. A pair whose table has at most
    _CHUNKED_CELLS_PER_UNIT cells per unit builds it whole (_dense_children);
    a larger one is scored in column chunks, once with each feature as the
    root (_chunked_children).
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

    def pair_inputs(f, g):
        return positions[f], per_feature[f][1], col_sums[f], positions[g], col_sums[g], gamma

    for f, g in combinations(range(len(per_feature)), 2):
        if len(col_sums[f]) * len(col_sums[g]) > _CHUNKED_CELLS_PER_UNIT * len(gamma):
            children = [(f, *_chunked_children(*pair_inputs(f, g))),
                        (g, *_chunked_children(*pair_inputs(g, f)))]
        else:
            left_f, right_f, left_g, right_g = _dense_children(*pair_inputs(f, g))
            children = [(f, left_f, right_f), (g, left_g, right_g)]
        for root, left, right in children:
            np.maximum(left_best[root], left, out=left_best[root])
            np.maximum(right_best[root], right, out=right_best[root])
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
        _, feature, threshold, leaf_sums = _best_stump(per_feature, mask=None)
        return _tree(eligible, [(feature, threshold)], leaf_sums)

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
        objective = left[0] + right[0]
        if objective > best_objective:
            best_objective = objective
            best = (feature, threshold, left, right)
        # No later root can beat the best strictly once it clears their scores.
        if k + 1 < len(near) and best_objective >= remaining[k + 1] + tol:
            break

    feature, threshold, left, right = best
    return _tree(eligible, [(feature, threshold), left[1:3], right[1:3]], left[3] + right[3])


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


def _run_stage(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PolicyLearningError(stage, exc) from exc


def impute_scores(
    data: ObservationalDataset, config: LearnConfig
) -> ImputedPotentialOutcomes:
    """Imputation stages of the pipeline: metric, matching, optional correction."""
    metric = _run_stage("metric", fit_mahalanobis, data.x)
    matches = _run_stage("matching", match_units, data, metric, config.m)
    if config.correction == "none":
        return _run_stage("imputation", impute_raw, data, matches)
    if config.correction == "ols":
        model = _run_stage("outcome_model", fit_ols_per_arm, data, "linear")
    else:
        model = _run_stage(
            "outcome_model", fit_lasso_per_arm, data, folds=config.lasso_folds, seed=config.seed
        )
    return _run_stage("imputation", impute_bias_corrected, data, matches, model)


def learn_policy(
    data: ObservationalDataset,
    config: LearnConfig,
    imputed: ImputedPotentialOutcomes | AipwScores | None = None,
) -> TreePolicy:
    """Full pipeline: metric, matching, optional outcome model, imputation, search.

    Deterministic given (data, config); the only randomness is the seeded
    lasso cross-validation shuffle. Pass precomputed scores, any object with
    a per-unit `gamma` vector, to run the search stage alone on them (e.g. an
    imputation whose scores are also being reported, or doubly robust scores).
    """
    if imputed is None:
        imputed = impute_scores(data, config)
    tree = _run_stage(
        "search", search_tree, data.x, imputed.gamma, config.depth, data.eligible_features
    )
    return replace(tree, feature_names=data.feature_names)
